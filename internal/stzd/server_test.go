package stzd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
)

// testServer wraps the exported StartTest harness — the same in-process
// setup path cmd/stzload uses — adding test cleanup.
func testServer(t *testing.T, o Options) *httptest.Server {
	t.Helper()
	ts := StartTest(o)
	t.Cleanup(ts.Close)
	return ts
}

func rawBody[T grid.Float](g *grid.Grid[T]) *bytes.Buffer {
	var buf bytes.Buffer
	if err := rawio.NewWriter[T](&buf).Write(g.Data); err != nil {
		panic(err)
	}
	return &buf
}

func post(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", body)
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

// TestCompressDecompressRoundTrip drives the acceptance path: an HTTP
// compress → decompress round trip must agree with the in-process codec
// pipeline byte for byte, on both the archive and the reconstruction.
func TestCompressDecompressRoundTrip(t *testing.T) {
	ts := testServer(t, Options{Workers: 2, MaxInflight: 2})
	g := datasets.Nyx(24, 10, 12, 4)
	cfg := codec.Config{EB: 0.05, Workers: 2, Chunks: 3}

	for _, name := range codec.Names() {
		resp, archive := post(t,
			ts.URL+"/v1/compress?codec="+name+"&dims=24x10x12&dtype=f32&eb=0.05&chunks=3",
			rawBody(g))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: compress status %d: %s", name, resp.StatusCode, archive)
		}
		want, err := codec.Encode(name, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(archive, want) {
			t.Fatalf("%s: served archive differs from codec.Encode (%d vs %d bytes)",
				name, len(archive), len(want))
		}

		resp2, raw := post(t, ts.URL+"/v1/decompress", bytes.NewReader(archive))
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: decompress status %d: %s", name, resp2.StatusCode, raw)
		}
		if got := resp2.Header.Get("X-Stz-Dims"); got != "24x10x12" {
			t.Fatalf("%s: X-Stz-Dims = %q", name, got)
		}
		dec, err := codec.Decode[float32](want, 2)
		if err != nil {
			t.Fatal(err)
		}
		var wantRaw bytes.Buffer
		rawio.NewWriter[float32](&wantRaw).Write(dec.Data)
		if !bytes.Equal(raw, wantRaw.Bytes()) {
			t.Fatalf("%s: served reconstruction differs from codec.Decode", name)
		}
	}
}

// TestDecompressManyWindows decodes an archive of more slabs than one
// window holds: the response starts after the first window, and every
// later window's sections must still be readable from the request.
func TestDecompressManyWindows(t *testing.T) {
	ts := testServer(t, Options{Workers: 1})
	g := datasets.Nyx(64, 64, 32, 4) // eight slabs, four windows
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.01, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts.URL+"/v1/decompress", bytes.NewReader(enc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	dec, err := codec.Decode[float32](enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rawBody(dec).Bytes()) {
		t.Fatalf("served %d bytes differ from codec.Decode's %d", len(raw), 4*len(dec.Data))
	}
}

func TestCompressRelativeMode(t *testing.T) {
	ts := testServer(t, Options{Workers: 1})
	g := grid.ToFloat64(datasets.Nyx(16, 8, 8, 1))
	resp, archive := post(t,
		ts.URL+"/v1/compress?codec=sperr&dims=16x8x8&dtype=f64&eb=1e-3&mode=rel",
		rawBody(g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, archive)
	}
	want, err := codec.Encode("sperr", g, codec.Config{EB: 1e-3, Mode: codec.ModeRel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archive, want) {
		t.Fatal("relative-mode archive differs from codec.Encode")
	}
	hdr, err := codec.ParseHeader(archive)
	if err != nil || hdr.Mode != codec.ModeRel {
		t.Fatalf("header %+v err %v", hdr, err)
	}
}

func TestHeaderParams(t *testing.T) {
	ts := testServer(t, Options{})
	g := datasets.Nyx(8, 8, 8, 2)
	req, err := http.NewRequest("POST", ts.URL+"/v1/compress", rawBody(g))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Stz-Codec", "sz3")
	req.Header.Set("X-Stz-Dims", "8x8x8")
	req.Header.Set("X-Stz-Error-Bound", "0.05")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Stz-Codec"); got != "sz3" {
		t.Fatalf("X-Stz-Codec = %q", got)
	}
}

func TestCompressRejectsBadRequests(t *testing.T) {
	ts := testServer(t, Options{MaxBody: 1 << 20})
	g := datasets.Nyx(8, 8, 8, 1)
	cases := []struct {
		name, url string
		body      io.Reader
		status    int
		code      string
	}{
		{"missing-codec", "/v1/compress?dims=8x8x8&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"unknown-codec", "/v1/compress?codec=lzma&dims=8x8x8&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"missing-dims", "/v1/compress?codec=sz3&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"bad-dims", "/v1/compress?codec=sz3&dims=8x8&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"zero-dim", "/v1/compress?codec=sz3&dims=0x8x8&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"missing-eb", "/v1/compress?codec=sz3&dims=8x8x8", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"bad-eb", "/v1/compress?codec=sz3&dims=8x8x8&eb=-1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"bad-mode", "/v1/compress?codec=sz3&dims=8x8x8&eb=0.1&mode=pct", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"bad-dtype", "/v1/compress?codec=sz3&dims=8x8x8&eb=0.1&dtype=f16", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"oversized-dims", "/v1/compress?codec=sz3&dims=999x999x999&eb=0.1", rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"overflow-dims", "/v1/compress?codec=sz3&dims=4194304x2097152x2097152&eb=0.1",
			rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"overflow-dims-64bit", "/v1/compress?codec=sz3&dims=4294967296x4294967296x1&eb=0.1",
			rawBody(g), http.StatusBadRequest, CodeBadRequest},
		{"short-body", "/v1/compress?codec=sz3&dims=8x8x8&eb=0.1",
			bytes.NewReader(rawBody(g).Bytes()[:100]), http.StatusBadRequest, CodeBadRequest},
		{"long-body", "/v1/compress?codec=sz3&dims=8x8x8&eb=0.1",
			bytes.NewReader(append(rawBody(g).Bytes(), 0, 0, 0, 0)), http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			assertEnvelope(t, body, tc.code)
		})
	}
}

// assertEnvelope checks that body is a structured error envelope carrying
// the expected machine code, a human message, and the retryability the
// code implies.
func assertEnvelope(t *testing.T, body []byte, code string) {
	t.Helper()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error payload %q not a JSON envelope: %v", body, err)
	}
	if env.Error.Code != code {
		t.Fatalf("error code %q, want %q (%s)", env.Error.Code, code, body)
	}
	if env.Error.Message == "" {
		t.Fatalf("error envelope has no message: %s", body)
	}
	if want := retryableCode(code); env.Error.Retryable != want {
		t.Fatalf("retryable=%v for code %q, want %v", env.Error.Retryable, code, want)
	}
}

// TestMethodNotAllowed walks every /v1 route with an unsupported verb:
// each must answer 405 with an Allow header listing the supported verbs
// and the standard JSON envelope (never the mux's plain-text default).
func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t, Options{})
	cases := []struct {
		method, path, allow string
	}{
		{"POST", "/healthz", "GET"},
		{"DELETE", "/v1/codecs", "GET"},
		{"POST", "/v1/stats", "GET"},
		{"GET", "/v1/compress", "POST"},
		{"PUT", "/v1/compress", "POST"},
		{"GET", "/v1/decompress", "POST"},
		{"DELETE", "/v1/archives", "GET"},
		{"POST", "/v1/archives/x", "GET, PUT, DELETE"},
		{"POST", "/v1/archives/x/box", "GET"},
		{"PUT", "/v1/archives/x/box", "GET"},
		{"GET", "/v1/archives/x/roi", "POST"},
		{"DELETE", "/v1/archives/x/roi", "POST"},
	}
	for _, tc := range cases {
		t.Run(tc.method+"_"+tc.path, func(t *testing.T) {
			resp, body := do(t, tc.method, ts.URL+tc.path, nil)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405 (%s)", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("Allow = %q, want %q", got, tc.allow)
			}
			assertEnvelope(t, body, CodeBadRequest)
		})
	}
}

// TestDecompressRejectsTruncatedArchives is the handler half of the
// corrupt-input satellite: arbitrary prefixes of a valid archive must
// produce a clean 4xx, never a hang or a panic.
func TestDecompressRejectsTruncatedArchives(t *testing.T) {
	ts := testServer(t, Options{})
	g := datasets.Nyx(16, 8, 8, 3)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 4, 11, 12, 20, 44, len(enc) / 2, len(enc) - 1}
	for _, cut := range cuts {
		resp, body := post(t, ts.URL+"/v1/decompress", bytes.NewReader(enc[:cut]))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("prefix %d/%d: status %d (%s)", cut, len(enc), resp.StatusCode, body)
		}
	}
	// Garbage that is not a container at all.
	resp, _ := post(t, ts.URL+"/v1/decompress", strings.NewReader("not an archive"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage: status %d", resp.StatusCode)
	}
}

func TestDecompressOutputLimit(t *testing.T) {
	ts := testServer(t, Options{MaxBody: 4 << 20})
	g := datasets.Nyx(16, 8, 8, 1)
	enc, err := codec.Encode("zfp", g, codec.Config{EB: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// A small archive is fine…
	resp, _ := post(t, ts.URL+"/v1/decompress", bytes.NewReader(enc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// …but one that would decompress beyond the limit is rejected before
	// any payload work happens. Shrink the limit below the grid size.
	ts2 := testServer(t, Options{MaxBody: 1024})
	resp2, _ := post(t, ts2.URL+"/v1/decompress", bytes.NewReader(enc))
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp2.StatusCode)
	}
	// An upload whose *input* exceeds -max-body also gets 413, not a
	// generic 400: the MaxBytesReader error survives the stream wrapping.
	// Reframe the archive with an inflated (but cap-plausible) slab
	// section so the body outgrows the limit while the decoded grid
	// (4 KiB) stays within it.
	arc, err := container.Open(enc)
	if err != nil {
		t.Fatal(err)
	}
	var b container.Builder
	for i := 0; i < arc.Count(); i++ {
		sec, err := arc.Section(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			sec = make([]byte, 20000)
		}
		b.Add(sec)
	}
	ts3 := testServer(t, Options{MaxBody: 8192})
	resp3, body := post(t, ts3.URL+"/v1/decompress", bytes.NewReader(b.Bytes()))
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413 (%s)", resp3.StatusCode, body)
	}
}

func TestHealthAndCodecs(t *testing.T) {
	ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health["status"] != "ok" {
		t.Fatalf("healthz payload %v (err %v)", health, err)
	}

	resp2, err := http.Get(ts.URL + "/v1/codecs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var codecs struct {
		Codecs []struct {
			Name string `json:"name"`
			ID   uint8  `json:"id"`
		} `json:"codecs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&codecs); err != nil {
		t.Fatal(err)
	}
	if len(codecs.Codecs) != len(codec.Names()) {
		t.Fatalf("%d codecs listed, want %d", len(codecs.Codecs), len(codec.Names()))
	}

	// Unknown paths and wrong methods.
	resp3, _ := http.Get(ts.URL + "/v1/compress")
	if resp3.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/compress succeeded")
	}
	resp3.Body.Close()
}

// TestAdmissionControl saturates the single job slot and verifies the
// overflow request is turned away with 503 rather than queued forever.
func TestAdmissionControl(t *testing.T) {
	s := New(Options{MaxInflight: 1, AdmissionWait: 10 * time.Millisecond})
	// Occupy the only slot directly.
	s.sem <- struct{}{}
	g := datasets.Nyx(8, 8, 8, 1)
	req := httptest.NewRequest("POST", "/v1/compress?codec=sz3&dims=8x8x8&eb=0.1", rawBody(g))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	<-s.sem
}

// TestStatsEndpoint exercises a round trip and then checks that /v1/stats
// reports the scratch arenas (with activity) and the in-flight gauge.
func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t, Options{Workers: 2, MaxInflight: 3})
	g := datasets.Nyx(16, 12, 10, 2)
	resp, _ := post(t, ts.URL+"/v1/compress?codec=sz3&dims=16x12x10&dtype=f32&eb=0.05", rawBody(g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", r.StatusCode)
	}
	var body struct {
		Inflight    int     `json:"inflight"`
		MaxInflight int     `json:"max_inflight"`
		PoolHitRate float64 `json:"pool_hit_rate"`
		Pools       map[string]struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			Releases uint64  `json:"releases"`
			HitRate  float64 `json:"hit_rate"`
		} `json:"pools"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if body.MaxInflight != 3 {
		t.Fatalf("max_inflight = %d, want 3", body.MaxInflight)
	}
	if len(body.Pools) == 0 {
		t.Fatal("no arenas reported")
	}
	var activity uint64
	for _, p := range body.Pools {
		activity += p.Hits + p.Misses
	}
	if activity == 0 {
		t.Fatal("no arena activity after a compression round trip")
	}
}

// TestPprofDisabledByDefault ensures the profiling surface stays off unless
// explicitly enabled.
func TestPprofDisabledByDefault(t *testing.T) {
	ts := testServer(t, Options{})
	r, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: status %d", r.StatusCode)
	}

	ts2 := testServer(t, Options{EnablePprof: true})
	r2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("pprof not served with EnablePprof: status %d", r2.StatusCode)
	}
}
