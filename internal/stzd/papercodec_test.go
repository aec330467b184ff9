package stzd

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"testing"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
)

// TestServesPaperCodec names the codec the service exists for: a
// single-slab stz archive PUT to a 3-node cluster is served — whole, by
// box, and as a still-compressed section, all through a node that does not
// own it — bit-identical to what a bare core.Reader makes of the payload,
// decoding boxes natively (the store holds the archive bytes and nothing
// else).
func TestServesPaperCodec(t *testing.T) {
	const nz, ny, nx = 33, 31, 38
	g := datasets.Nyx(nz, ny, nx, 5)
	enc, err := codec.Encode("stz", g, codec.Config{EB: 1e-3, Mode: codec.ModeRel, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := codec.OpenReaderAt[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Header().Chunks() != 1 || !ra.NativeRandomAccess() {
		t.Fatalf("stz archive: %d chunks, native random access %v", ra.Header().Chunks(), ra.NativeRandomAccess())
	}
	payload, err := ra.RawSection(0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewReader[float32](payload)
	if err != nil {
		t.Fatal(err)
	}

	c := testCluster(t, 3, Options{Workers: 2})
	id := idOwnedBy(t, c, 1)
	putArchive(t, c.URL(0), id, enc)
	e, ok := c.Nodes[1].store.get(id)
	if !ok {
		t.Fatalf("archive %q not in its owner's store", id)
	}
	if e.cost != int64(len(enc)) {
		t.Errorf("store charges %d bytes for a %d-byte archive: a slab cache was budgeted", e.cost, len(enc))
	}

	boxURL := c.URL(2) + "/v1/archives/" + id + "/box?box="
	boxSpec := func(b grid.Box) string {
		return fmt.Sprintf("%d:%d,%d:%d,%d:%d", b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
	}
	same := func(label string, raw []byte, want *grid.Grid[float32]) {
		t.Helper()
		got := decode32(t, raw)
		if len(got) != want.Len() {
			t.Fatalf("%s: %d values, want %d", label, len(got), want.Len())
		}
		for i, w := range want.Data {
			if math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("%s: value %d = %g, core.Reader has %g", label, i, got[i], w)
			}
		}
	}
	for label, b := range map[string]grid.Box{
		"whole grid":       {Z1: nz, Y1: ny, X1: nx},
		"interior":         {Z0: 7, Y0: 5, X0: 11, Z1: 30, Y1: 28, X1: 33},
		"one-voxel corner": {Z0: nz - 1, Y0: ny - 1, X0: nx - 1, Z1: nz, Y1: ny, X1: nx},
		"y-plane":          {Y0: 17, Z1: nz, Y1: 18, X1: nx},
	} {
		resp, body := do(t, http.MethodGet, boxURL+boxSpec(b), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", label, resp.StatusCode, body)
		}
		if got := resp.Header.Get(ServedByHeader); got != c.Addrs[1] {
			t.Fatalf("%s: served by %q, want the owner %q", label, got, c.Addrs[1])
		}
		want, _, err := ref.DecompressBox(b)
		if err != nil {
			t.Fatal(err)
		}
		same(label, body, want)
	}

	// The one slab, still compressed: the section is the bare core archive.
	resp, body := doAccept(t, boxURL+boxSpec(grid.Box{Z1: nz, Y1: ny, X1: nx}), SectionContentType)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stz-Zero-Copy") != "1" {
		t.Fatalf("section fetch: status %d, zero-copy %q (%s)", resp.StatusCode, resp.Header.Get("X-Stz-Zero-Copy"), body)
	}
	secs := splitSections(t, resp, body)
	if len(secs) != 1 || !bytes.Equal(secs[0], payload) {
		t.Fatalf("section fetch: %d sections, or not the archive's payload", len(secs))
	}
}
