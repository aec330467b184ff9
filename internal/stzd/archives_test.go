package stzd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
)

// do issues a method/url/body request and returns the response with its
// body read.
func do(t *testing.T, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func putArchive(t *testing.T, base, id string, archive []byte) *http.Response {
	t.Helper()
	resp, body := do(t, http.MethodPut, base+"/v1/archives/"+id, bytes.NewReader(archive))
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s: status %d: %s", id, resp.StatusCode, body)
	}
	return resp
}

// decode32 converts raw little-endian response bytes to float32s.
func decode32(t *testing.T, raw []byte) []float32 {
	t.Helper()
	if len(raw)%4 != 0 {
		t.Fatalf("%d response bytes is not a float32 array", len(raw))
	}
	out := make([]float32, len(raw)/4)
	if err := rawio.NewReader[float32](bytes.NewReader(raw)).ReadExactly(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRandomAccessArchiveRoundTrip stores archives for every registry
// codec and checks that box queries against the resident copy are
// byte-identical to the matching window of a local full decode.
func TestRandomAccessArchiveRoundTrip(t *testing.T) {
	ts := testServer(t, Options{Workers: 2})
	g := datasets.Nyx(24, 18, 20, 11)
	boxes := []grid.Box{
		{Z1: 24, Y1: 18, X1: 20},                         // full grid
		{Z0: 5, Y0: 3, X0: 7, Z1: 13, Y1: 11, X1: 15},    // interior
		{Z0: 23, Y0: 17, X0: 19, Z1: 24, Y1: 18, X1: 20}, // corner voxel
		{Z0: 0, Y0: 0, X0: 0, Z1: 24, Y1: 1, X1: 20},     // y-plane
	}
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 0.05, Chunks: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		full, err := codec.Decode[float32](enc, 2)
		if err != nil {
			t.Fatal(err)
		}
		id := "rt-" + name
		resp := putArchive(t, ts.URL, id, enc)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: first PUT status %d, want 201", name, resp.StatusCode)
		}
		// Replacing the same id answers 200.
		if resp := putArchive(t, ts.URL, id, enc); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: replace PUT status %d, want 200", name, resp.StatusCode)
		}

		infoResp, info := do(t, http.MethodGet, ts.URL+"/v1/archives/"+id, nil)
		if infoResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: info status %d", name, infoResp.StatusCode)
		}
		var meta archiveJSON
		if err := json.Unmarshal(info, &meta); err != nil || meta.Codec != name || meta.Dims != "24x18x20" {
			t.Fatalf("%s: info payload %s (err %v)", name, info, err)
		}

		for _, b := range boxes {
			spec := fmt.Sprintf("%d:%d,%d:%d,%d:%d", b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
			resp, raw := do(t, http.MethodGet, ts.URL+"/v1/archives/"+id+"/box?box="+spec, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s box %s: status %d: %s", name, spec, resp.StatusCode, raw)
			}
			want := full.ExtractBox(b)
			got := decode32(t, raw)
			if len(got) != len(want.Data) {
				t.Fatalf("%s box %s: %d values, want %d", name, spec, len(got), len(want.Data))
			}
			for i := range want.Data {
				if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s box %s: value %d differs from local decode", name, spec, i)
				}
			}
			wantDims := fmt.Sprintf("%dx%dx%d", b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
			if got := resp.Header.Get("X-Stz-Dims"); got != wantDims {
				t.Fatalf("%s box %s: X-Stz-Dims %q want %q", name, spec, got, wantDims)
			}
		}

		if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/archives/"+id, nil); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s: delete status %d", name, resp.StatusCode)
		}
		if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/archives/"+id+"/box?box=0:1,0:1,0:1", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: deleted archive still queryable (status %d)", name, resp.StatusCode)
		}
	}
}

// TestRandomAccessArchiveQueryReadsSubset is the acceptance criterion: a
// 16³ box out of a resident chunked 128³ sz3 archive must be served while
// reading < 25% of the payload bytes, observed through the container's
// chunk-read accounting surfaced in the response headers.
func TestRandomAccessArchiveQueryReadsSubset(t *testing.T) {
	ts := testServer(t, Options{Workers: 4})
	g := datasets.Nyx(128, 128, 128, 5)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 1e-3, Chunks: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "nyx128", enc)

	b := grid.Box{Z0: 56, Y0: 40, X0: 24, Z1: 72, Y1: 56, X1: 40}
	resp, raw := do(t, http.MethodGet, ts.URL+"/v1/archives/nyx128/box?box=56:72,40:56,24:40", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	read, err1 := strconv.ParseInt(resp.Header.Get("X-Stz-Read-Bytes"), 10, 64)
	payload, err2 := strconv.ParseInt(resp.Header.Get("X-Stz-Payload-Bytes"), 10, 64)
	if err1 != nil || err2 != nil || read <= 0 || payload <= 0 {
		t.Fatalf("accounting headers missing: read=%q payload=%q",
			resp.Header.Get("X-Stz-Read-Bytes"), resp.Header.Get("X-Stz-Payload-Bytes"))
	}
	if frac := float64(read) / float64(payload); frac >= 0.25 {
		t.Fatalf("16³ box query read %.1f%% of the payload, want < 25%%", 100*frac)
	}

	full, err := codec.Decode[float32](enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := full.ExtractBox(b)
	got := decode32(t, raw)
	for i := range want.Data {
		if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("served box differs from local decode at %d", i)
		}
	}
}

// TestRandomAccessArchiveLRUEviction pins the byte-budgeted LRU: under a
// budget that fits two of three archives, the least recently *used* one is
// evicted, and an archive that can never fit is refused outright.
func TestRandomAccessArchiveLRUEviction(t *testing.T) {
	g := datasets.Nyx(16, 16, 16, 3)
	// sz3 decodes boxes natively, so an entry's budget cost is exactly its
	// archive size — which makes the eviction arithmetic deterministic.
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One shard, budget for two-and-a-bit archives of this size.
	ts := testServer(t, Options{Workers: 1, ArchiveShards: 1, ArchiveBudget: int64(3*len(enc) - 1)})

	putArchive(t, ts.URL, "a", enc)
	putArchive(t, ts.URL, "b", enc)
	// Touch a so b becomes least recently used.
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/archives/a", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("touch a: status %d", resp.StatusCode)
	}
	putArchive(t, ts.URL, "c", enc)

	for id, want := range map[string]int{"a": http.StatusOK, "b": http.StatusNotFound, "c": http.StatusOK} {
		if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/archives/"+id, nil); resp.StatusCode != want {
			t.Fatalf("after eviction: GET %s status %d, want %d", id, resp.StatusCode, want)
		}
	}
	var stats struct {
		Archives struct {
			Count     int   `json:"count"`
			Bytes     int64 `json:"bytes"`
			Evictions int64 `json:"evictions"`
		} `json:"archives"`
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &stats) != nil {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	if stats.Archives.Count != 2 || stats.Archives.Evictions != 1 {
		t.Fatalf("stats count=%d evictions=%d, want 2/1", stats.Archives.Count, stats.Archives.Evictions)
	}

	// An archive that exceeds the whole shard budget is refused with 413.
	ts2 := testServer(t, Options{Workers: 1, ArchiveShards: 1, ArchiveBudget: int64(len(enc) - 1)})
	resp2, _ := do(t, http.MethodPut, ts2.URL+"/v1/archives/toobig", bytes.NewReader(enc))
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget PUT status %d, want 413", resp2.StatusCode)
	}
}

// TestRandomAccessArchiveConcurrentQueries hammers one resident archive
// from many goroutines (the -race CI leg runs this against the shared
// reader and LRU) and checks every response against the local decode.
func TestRandomAccessArchiveConcurrentQueries(t *testing.T) {
	ts := testServer(t, Options{Workers: 2, MaxInflight: 8})
	g := datasets.Nyx(32, 24, 24, 7)
	for _, name := range []string{"sz3", "zfp"} { // native and cached-fallback paths
		enc, err := codec.Encode(name, g, codec.Config{EB: 0.05, Chunks: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		full, err := codec.Decode[float32](enc, 2)
		if err != nil {
			t.Fatal(err)
		}
		putArchive(t, ts.URL, "conc-"+name, enc)
		var wg sync.WaitGroup
		errc := make(chan error, 64)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < 6; q++ {
					z0, y0, x0 := (w*3+q)%28, (w*5+q)%20, (w*7+q)%20
					b := grid.Box{Z0: z0, Y0: y0, X0: x0, Z1: z0 + 4, Y1: y0 + 4, X1: x0 + 4}
					spec := fmt.Sprintf("%d:%d,%d:%d,%d:%d", b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
					resp, err := http.Get(ts.URL + "/v1/archives/conc-" + name + "/box?box=" + spec)
					if err != nil {
						errc <- err
						return
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("box %s: status %d", spec, resp.StatusCode)
						return
					}
					want := full.ExtractBox(b)
					if len(raw) != 4*len(want.Data) {
						errc <- fmt.Errorf("box %s: %d bytes", spec, len(raw))
						return
					}
					for i := range want.Data {
						got := math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
							uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
						if math.Float32bits(got) != math.Float32bits(want.Data[i]) {
							errc <- fmt.Errorf("box %s: value %d differs", spec, i)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRandomAccessArchiveErrors walks the error surface: 404 for unknown
// ids, 413 for oversized uploads, 422 for bodies that are not archives and
// for boxes outside the grid, 400 for malformed requests.
func TestRandomAccessArchiveErrors(t *testing.T) {
	ts := testServer(t, Options{Workers: 1, MaxBody: 1 << 20})
	g := datasets.Nyx(12, 12, 12, 9)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "ok", enc)

	cases := []struct {
		name, method, url string
		body              io.Reader
		status            int
		code              string
	}{
		{"unknown-info", "GET", "/v1/archives/nope", nil, 404, CodeUnknownArchive},
		{"unknown-box", "GET", "/v1/archives/nope/box?box=0:1,0:1,0:1", nil, 404, CodeUnknownArchive},
		{"unknown-delete", "DELETE", "/v1/archives/nope", nil, 404, CodeUnknownArchive},
		{"unknown-roi", "POST", "/v1/archives/nope/roi", strings.NewReader(`{}`), 404, CodeUnknownArchive},
		{"bad-id", "PUT", "/v1/archives/" + strings.Repeat("x", 200), bytes.NewReader(enc), 400, CodeBadRequest},
		{"garbage-archive", "PUT", "/v1/archives/bad", strings.NewReader("not an archive"), 422, CodeBadArchive},
		{"truncated-archive", "PUT", "/v1/archives/bad", bytes.NewReader(enc[:len(enc)/2]), 422, CodeBadArchive},
		{"core-stream", "PUT", "/v1/archives/bad", bytes.NewReader(mutateMagic(enc)), 422, CodeBadArchive},
		{"missing-box", "GET", "/v1/archives/ok/box", nil, 400, CodeBadBox},
		{"bad-box-syntax", "GET", "/v1/archives/ok/box?box=1:2", nil, 400, CodeBadBox},
		{"bad-box-number", "GET", "/v1/archives/ok/box?box=a:b,0:1,0:1", nil, 400, CodeBadBox},
		{"empty-box", "GET", "/v1/archives/ok/box?box=3:3,0:12,0:12", nil, 422, CodeBadBox},
		{"inverted-box", "GET", "/v1/archives/ok/box?box=8:2,0:12,0:12", nil, 422, CodeBadBox},
		{"oob-box", "GET", "/v1/archives/ok/box?box=0:13,0:12,0:12", nil, 422, CodeBadBox},
		{"negative-box", "GET", "/v1/archives/ok/box?box=-1:4,0:12,0:12", nil, 422, CodeBadBox},
		{"roi-bad-json", "POST", "/v1/archives/ok/roi", strings.NewReader("{"), 400, CodeBadRequest},
		{"roi-bad-mode", "POST", "/v1/archives/ok/roi", strings.NewReader(`{"mode":"median"}`), 400, CodeBadRequest},
		{"roi-bad-block", "POST", "/v1/archives/ok/roi", strings.NewReader(`{"block":-4}`), 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			assertEnvelope(t, body, tc.code)
		})
	}

	// An upload beyond -max-body is 413 payload_too_large.
	ts2 := testServer(t, Options{Workers: 1, MaxBody: 64})
	resp, body := do(t, http.MethodPut, ts2.URL+"/v1/archives/big", bytes.NewReader(enc))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT status %d, want 413", resp.StatusCode)
	}
	assertEnvelope(t, body, CodePayloadTooLarge)
}

// mutateMagic flips the container magic so the body is structurally close
// to an archive but unparseable.
func mutateMagic(enc []byte) []byte {
	out := append([]byte(nil), enc...)
	out[0] ^= 0xff
	return out
}

// TestRandomAccessArchiveROI runs the Server-side ROI selector and checks
// the selected regions agree with running internal/roi locally, and that
// each returned box is addressable through the box endpoint.
func TestRandomAccessArchiveROI(t *testing.T) {
	ts := testServer(t, Options{Workers: 2})
	g := datasets.Nyx(24, 24, 24, 13)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 1e-3, Chunks: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "roi", enc)

	resp, body := do(t, http.MethodPost, ts.URL+"/v1/archives/roi/roi",
		strings.NewReader(`{"mode":"max","block":8,"top":10}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("roi status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Mode     string          `json:"mode"`
		Block    int             `json:"block"`
		Scanned  int             `json:"scanned"`
		Selected int             `json:"selected"`
		Coverage float64         `json:"coverage"`
		Regions  []roiRegionJSON `json:"regions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("roi payload: %v (%s)", err, body)
	}
	if out.Mode != "max-value" || out.Block != 8 || out.Scanned != 27 {
		t.Fatalf("roi meta %+v", out)
	}
	if out.Selected == 0 || out.Selected != len(out.Regions) {
		t.Fatalf("selected=%d regions=%d", out.Selected, len(out.Regions))
	}
	if out.Coverage <= 0 || out.Coverage > 1 {
		t.Fatalf("coverage=%g", out.Coverage)
	}
	// Every returned region must be queryable as-is.
	for _, reg := range out.Regions {
		resp, raw := do(t, http.MethodGet, ts.URL+"/v1/archives/roi/box?box="+reg.Box, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("region %s: status %d: %s", reg.Box, resp.StatusCode, raw)
		}
	}
}
