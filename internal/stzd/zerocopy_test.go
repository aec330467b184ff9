package stzd

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
)

// doAccept issues a GET with an explicit Accept header.
func doAccept(t *testing.T, url, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// splitSections cuts a sectioned body by the X-Stz-Section-Lengths header.
func splitSections(t *testing.T, resp *http.Response, body []byte) [][]byte {
	t.Helper()
	var secs [][]byte
	off := 0
	for _, s := range strings.Split(resp.Header.Get("X-Stz-Section-Lengths"), ",") {
		n, err := strconv.Atoi(s)
		if err != nil || off+n > len(body) {
			t.Fatalf("bad section lengths %q for %d body bytes (err %v)",
				resp.Header.Get("X-Stz-Section-Lengths"), len(body), err)
		}
		secs = append(secs, body[off:off+n])
		off += n
	}
	if off != len(body) {
		t.Fatalf("section lengths cover %d of %d body bytes", off, len(body))
	}
	return secs
}

// TestZeroCopySectionByteIdentity is the zero-copy correctness bar: for
// every registry codec — including the backends without native sub-box
// support, which serve boxes through the slab-cache fallback — a
// slab-aligned box requested with Accept: application/x-stz-section must
// arrive as still-compressed sections that decode (client-side)
// byte-identical to the normal decode-path /box response.
func TestZeroCopySectionByteIdentity(t *testing.T) {
	ts := testServer(t, Options{Workers: 2})
	g := datasets.Nyx(24, 18, 20, 13)
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 0.05, Chunks: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := codec.ParseHeader(enc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := codec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		id := "zc-" + name
		putArchive(t, ts.URL, id, enc)

		// Every slab-aligned z-range: single chunks, adjacent pairs, the
		// whole grid.
		bounds := hdr.ChunkBounds
		for i0 := 0; i0 < hdr.Chunks(); i0++ {
			for i1 := i0 + 1; i1 <= hdr.Chunks(); i1++ {
				spec := fmt.Sprintf("%d:%d,0:%d,0:%d", bounds[i0], bounds[i1], hdr.Ny, hdr.Nx)
				url := ts.URL + "/v1/archives/" + id + "/box?box=" + spec

				// Reference: the normal decode path.
				refResp, ref := do(t, http.MethodGet, url, nil)
				if refResp.StatusCode != http.StatusOK {
					t.Fatalf("%s box %s: decode path status %d: %s", name, spec, refResp.StatusCode, ref)
				}
				if refResp.Header.Get("X-Stz-Zero-Copy") != "" {
					t.Fatalf("%s box %s: decode path tagged zero-copy", name, spec)
				}

				// Zero-copy: same box with the section Accept.
				zcResp, body := doAccept(t, url, SectionContentType)
				if zcResp.StatusCode != http.StatusOK {
					t.Fatalf("%s box %s: zero-copy status %d: %s", name, spec, zcResp.StatusCode, body)
				}
				if got := zcResp.Header.Get("Content-Type"); got != SectionContentType {
					t.Fatalf("%s box %s: Content-Type %q", name, spec, got)
				}
				if zcResp.Header.Get("X-Stz-Zero-Copy") != "1" {
					t.Fatalf("%s box %s: missing X-Stz-Zero-Copy", name, spec)
				}

				// Client-side reassembly: decode each section, concatenate in
				// plane order, compare byte-for-byte.
				secs := splitSections(t, zcResp, body)
				if len(secs) != i1-i0 {
					t.Fatalf("%s box %s: %d sections, want %d", name, spec, len(secs), i1-i0)
				}
				planes := strings.Split(zcResp.Header.Get("X-Stz-Section-Planes"), ",")
				var out bytes.Buffer
				for k, sec := range secs {
					sg, err := codec.Decompress[float32](c, sec, 2)
					if err != nil {
						t.Fatalf("%s box %s: section %d decode: %v", name, spec, k, err)
					}
					if want := strconv.Itoa(sg.Nz); planes[k] != want {
						t.Fatalf("%s box %s: section %d planes header %q, want %s",
							name, spec, k, planes[k], want)
					}
					if err := rawio.NewWriter[float32](&out).Write(sg.Data); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(out.Bytes(), ref) {
					t.Fatalf("%s box %s: reassembled sections differ from decode path (%d vs %d bytes)",
						name, spec, out.Len(), len(ref))
				}
			}
		}

		// Misaligned boxes fall through to the decode path even with the
		// Accept header — negotiation, not an error.
		mis := fmt.Sprintf("%d:%d,1:%d,0:%d", bounds[0], bounds[1], hdr.Ny, hdr.Nx)
		misResp, misBody := doAccept(t, ts.URL+"/v1/archives/"+id+"/box?box="+mis, SectionContentType)
		if misResp.StatusCode != http.StatusOK {
			t.Fatalf("%s misaligned box: status %d: %s", name, misResp.StatusCode, misBody)
		}
		if misResp.Header.Get("X-Stz-Zero-Copy") != "" || misResp.Header.Get("Content-Type") == SectionContentType {
			t.Fatalf("%s misaligned box: served zero-copy", name)
		}
		if len(misBody)%4 != 0 {
			t.Fatalf("%s misaligned box: %d raw bytes", name, len(misBody))
		}
	}
}

// TestZeroCopyStatsAndAccounting checks the accounting surface: served
// responses advance the zero_copy stats counters, X-Stz-Read-Bytes
// charges only the shipped sections, and a float64 archive reports the
// right dtype.
func TestZeroCopyStatsAndAccounting(t *testing.T) {
	ts := testServer(t, Options{Workers: 2})
	g := datasets.Nyx(16, 12, 10, 7)
	g64 := grid.New[float64](g.Nz, g.Ny, g.Nx)
	for i, v := range g.Data {
		g64.Data[i] = float64(v)
	}
	enc, err := codec.Encode("sz3", g64, codec.Config{EB: 0.01, Chunks: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := codec.ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "zc64", enc)

	spec := fmt.Sprintf("0:%d,0:%d,0:%d", hdr.ChunkBounds[1], hdr.Ny, hdr.Nx)
	resp, body := doAccept(t, ts.URL+"/v1/archives/zc64/box?box="+spec, SectionContentType)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Stz-Dtype"); got != "f64" {
		t.Fatalf("dtype %q, want f64", got)
	}
	read, err := strconv.ParseInt(resp.Header.Get("X-Stz-Read-Bytes"), 10, 64)
	if err != nil || read != int64(len(body)) {
		t.Fatalf("read-bytes %q, want %d", resp.Header.Get("X-Stz-Read-Bytes"), len(body))
	}
	payload, _ := strconv.ParseInt(resp.Header.Get("X-Stz-Payload-Bytes"), 10, 64)
	if read >= payload {
		t.Fatalf("one of two slabs read %d of %d payload bytes — not partial", read, payload)
	}

	// The section must carry the full-precision float64 planes.
	c, _ := codec.Lookup("sz3")
	sg, err := codec.Decompress[float64](c, body, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sg.Data {
		if math.Abs(sg.Data[i]-g64.Data[i]) > 0.01*1.0001*rangeOf(g64) {
			t.Fatalf("value %d out of bound", i)
		}
	}

	statsResp, stats := do(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if statsResp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", statsResp.StatusCode)
	}
	if !bytes.Contains(stats, []byte(`"zero_copy"`)) {
		t.Fatalf("stats missing zero_copy block: %s", stats)
	}
	if bytes.Contains(stats, []byte(`"served":0,`)) && bytes.Contains(stats, []byte(`"zero_copy":{"served":0`)) {
		t.Fatalf("zero_copy counter did not advance: %s", stats)
	}
}

func rangeOf(g *grid.Grid[float64]) float64 {
	mn, mx := g.Range()
	return mx - mn
}
