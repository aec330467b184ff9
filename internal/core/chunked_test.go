package core

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"stz/internal/container"
	"stz/internal/grid"
)

// Chunked class streams (versions 1–3, header CodeChunk > 0: each class
// stream cut into independently Huffman-coded chunks behind a directory of
// byte lengths and outlier bases) are read-only: no writer of this package
// produces them. These tests read the walker's version-3 fixtures.

// chunkFixtures are the fixture walker cases.
func chunkFixtures() []walkerCase {
	var out []walkerCase
	for _, wc := range walkerCases() {
		if wc.fixture {
			out = append(out, wc)
		}
	}
	return out
}

// forChunkFixtures runs fn on every fixture as a subtest, in the fixture's
// element type.
func forChunkFixtures(t *testing.T, f32 func(*testing.T, walkerCase), f64 func(*testing.T, walkerCase)) {
	for _, wc := range chunkFixtures() {
		t.Run(wc.name, func(t *testing.T) {
			if wc.f32 {
				f32(t, wc)
			} else {
				f64(t, wc)
			}
		})
	}
}

// fixtureFull opens a fixture and decodes it whole.
func fixtureFull[T grid.Float](t *testing.T, wc walkerCase) (*Reader[T], *grid.Grid[T]) {
	t.Helper()
	r, err := NewReader[T](encodeCase[T](t, wc))
	if err != nil {
		t.Fatal(err)
	}
	if r.hdr.Version != 3 || r.hdr.CodeChunk <= 0 {
		t.Fatalf("fixture is version %d with chunk %d, want a chunked version 3", r.hdr.Version, r.hdr.CodeChunk)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	return r, full
}

func TestChunkedRoundTrip(t *testing.T) {
	forChunkFixtures(t, chunkedRoundTrip[float32], chunkedRoundTrip[float64])
}

func chunkedRoundTrip[T grid.Float](t *testing.T, wc walkerCase) {
	_, full := fixtureFull[T](t, wc)
	checkBound(t, caseField[T](wc), full, wc.cfg.EB, "chunked")
}

// TestChunkedMatchesUnchunkedReconstruction: chunking changes only the
// entropy-coding layout, not the codes, so a fixture decodes to exactly
// what today's writer's archive of the same field and configuration does.
func TestChunkedMatchesUnchunkedReconstruction(t *testing.T) {
	forChunkFixtures(t, chunkedMatchesUnchunked[float32], chunkedMatchesUnchunked[float64])
}

func chunkedMatchesUnchunked[T grid.Float](t *testing.T, wc walkerCase) {
	_, chunked := fixtureFull[T](t, wc)
	plain, err := Compress(caseField[T](wc), wc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress[T](plain)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrid(chunked, want) {
		t.Fatal("chunked reconstruction differs from the unchunked one")
	}
}

// TestChunkedRandomAccessConsistency: random boxes and a mid-grid z-slice
// of every fixture equal the same windows of its full decode.
func TestChunkedRandomAccessConsistency(t *testing.T) {
	forChunkFixtures(t, chunkedRandomAccess[float32], chunkedRandomAccess[float64])
}

func chunkedRandomAccess[T grid.Float](t *testing.T, wc walkerCase) {
	r, full := fixtureFull[T](t, wc)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		z0, y0, x0 := rng.Intn(wc.nz), rng.Intn(wc.ny), rng.Intn(wc.nx)
		b := grid.Box{Z0: z0, Y0: y0, X0: x0,
			Z1: z0 + 1 + rng.Intn(8), Y1: y0 + 1 + rng.Intn(8), X1: x0 + 1 + rng.Intn(8)}.Clip(wc.nz, wc.ny, wc.nx)
		got, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatalf("box %+v: %v", b, err)
		}
		if !sameGrid(got, full.ExtractBox(b)) {
			t.Fatalf("chunked box %+v differs from the full decode", b)
		}
	}
	z := wc.nz / 2
	sl, _, err := r.DecompressSliceZ(z)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrid(sl, full.ExtractBox(grid.Box{Z0: z, Z1: z + 1, Y1: wc.ny, X1: wc.nx})) {
		t.Fatalf("slice %d differs from the full decode", z)
	}
}

// TestChunkedOutlierResync: heavy escapes and chunks of 512 codes — boxes
// that start deep inside the class streams, several chunks in, take their
// escapes' outliers exactly as the full decode does.
func TestChunkedOutlierResync(t *testing.T) {
	wc := walkerCaseNamed(t, "L3-f64-chunk512-outliers")
	r, full := fixtureFull[float64](t, wc)
	for _, b := range []grid.Box{
		{Z0: 17, Y0: 9, X0: 5, Z1: 30, Y1: 17, X1: 20},
		{Z0: 25, Y0: 2, X0: 11, Z1: 33, Y1: 18, X1: 21},
	} {
		got, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGrid(got, full.ExtractBox(b)) {
			t.Fatalf("outlier resync failed for box %+v", b)
		}
	}
}

// TestChunkedOutlierBaseEdited: a chunk's stored outlier base must be the
// count of the escapes before it. The fixture with chunks of 512 codes and
// escapes in every class, with one byte of one such base edited (the
// container's checksum covers only its directory), is refused by the full
// decode, a box and a slice, since each decodes the class whole.
func TestChunkedOutlierBaseEdited(t *testing.T) {
	wc := walkerCaseNamed(t, "L3-f64-chunk512-outliers")
	enc := encodeCase[float64](t, wc)
	arc, err := container.Open(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The last class of the finest level: the escape count, the values,
	// the chunk count, then per chunk its byte length and outlier base.
	sec, err := arc.Section(arc.Count() - 1)
	if err != nil {
		t.Fatal(err)
	}
	nOut := int(binary.LittleEndian.Uint32(sec))
	dir := sec[4+8*nOut+4:]
	if binary.LittleEndian.Uint32(sec[4+8*nOut:]) < 2 || binary.LittleEndian.Uint32(dir[12:]) == 0 {
		t.Fatal("fixture's last class has no second chunk with escapes before it")
	}
	dir[12]++ // chunk 1's base, lowest byte
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "outlier base") {
			t.Errorf("%s of an edited outlier base: err = %v", what, err)
		}
	}
	_, err = r.Decompress()
	refused("full decode", err)
	_, _, err = r.DecompressBox(grid.Box{Z0: 25, Y0: 2, X0: 11, Z1: 33, Y1: 18, X1: 21})
	refused("box", err)
	_, _, err = r.DecompressSliceZ(1)
	refused("slice", err)
}
