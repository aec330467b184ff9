package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/rawio"
	"stz/internal/stzd"
)

// soakOps is the five-endpoint mix cmd/stzload offers a stzd, in its
// order and at its weights, with stub requests that always succeed.
func soakOps() []LoadOp {
	ok := func() error { return nil }
	return []LoadOp{
		{Name: "box", Weight: 5, Do: ok},
		{Name: "section", Weight: 2, Do: ok},
		{Name: "decomp", Weight: 2, Do: ok},
		{Name: "compress", Weight: 1, Do: ok},
		{Name: "put", Weight: 1, Do: ok},
	}
}

// TestLoadCellSeriesCompat checks the load-result shape cmd/stzload's
// document is built from: one result per op of the mix, in declared
// order, each carrying every one of its samples. stzload emits one
// <name>/<op> series per op that saw traffic, so a reordered op or one
// the schedule starves would rename or drop a series without any gate
// failing. The soak schedule is stzload's test schedule (300 req/s ×
// 1.5 s, seed 1): the op sequence depends only on the request count and
// the seed, so it runs here compressed into 150 ms.
func TestLoadCellSeriesCompat(t *testing.T) {
	t.Run("soak", func(t *testing.T) {
		ops := soakOps()
		res := RunLoad(LoadSpec{Rate: 3000, Duration: 150 * time.Millisecond, Clients: 4, Seed: 1, Ops: ops})
		if res.Total.Name != "all" || res.Total.Count != 450 {
			t.Fatalf("aggregate %q with %d requests, want \"all\" with 450", res.Total.Name, res.Total.Count)
		}
		if len(res.Ops) != len(ops) {
			t.Fatalf("%d op results, want %d", len(res.Ops), len(ops))
		}
		for i, r := range res.Ops {
			if r.Name != ops[i].Name {
				t.Fatalf("op result %d is %q, want %q", i, r.Name, ops[i].Name)
			}
			if r.Count == 0 || r.Latency.Count() != uint64(r.Count) || r.Errors != 0 {
				t.Fatalf("%s: %d requests, %d latency samples, %d errors", r.Name, r.Count, r.Latency.Count(), r.Errors)
			}
		}
	})
}

// TestSoakCellEndToEnd runs the soak mix over real HTTP against an
// in-process stzd: box reads of a resident archive, zero-copy slab
// sections, decompress and compress round trips and PUT churn. The
// schedule holds exactly rate × duration requests, every endpoint
// reports ordered quantiles, and mixed traffic against a healthy server
// succeeds.
func TestSoakCellEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop soak needs wall-clock time")
	}
	g := datasets.Nyx(24, 18, 20, 1001)
	mn, mx := g.Range()
	eb := 1e-3 * float64(mx-mn)
	archive, err := codec.Encode("sz3", g, codec.Config{EB: eb, Workers: 2, Chunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := codec.ParseHeader(archive)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, g.Len()*4)
	rawio.PutValues(raw, g.Data)

	ts := stzd.StartTest(stzd.Options{Workers: 2, MaxInflight: 4})
	defer ts.Close()
	if _, _, err := call(http.MethodPut, ts.URL+"/v1/archives/soak", "", archive); err != nil {
		t.Fatal(err)
	}
	boxURL := ts.URL + "/v1/archives/soak/box?box=8:16,5:13,6:14"
	sectionURL := fmt.Sprintf("%s/v1/archives/soak/box?box=%d:%d,0:%d,0:%d",
		ts.URL, h.ChunkBounds[1], h.ChunkBounds[2], h.Ny, h.Nx)
	compressURL := fmt.Sprintf("%s/v1/compress?codec=sz3&dims=%dx%dx%d&dtype=f32&eb=%s&chunks=2",
		ts.URL, g.Nz, g.Ny, g.Nx, strconv.FormatFloat(eb, 'g', -1, 64))
	var puts atomic.Int64

	ops := soakOps()
	ops[0].Do = func() error {
		n, _, err := call(http.MethodGet, boxURL, "", nil)
		if err == nil && n != 8*8*8*4 {
			err = fmt.Errorf("box: %d payload bytes, want %d", n, 8*8*8*4)
		}
		return err
	}
	ops[1].Do = func() error {
		_, hd, err := call(http.MethodGet, sectionURL, stzd.SectionContentType, nil)
		if err == nil && hd.Get("X-Stz-Zero-Copy") != "1" {
			err = fmt.Errorf("section not served zero-copy")
		}
		return err
	}
	ops[2].Do = func() error { _, _, err := call(http.MethodPost, ts.URL+"/v1/decompress", "", archive); return err }
	ops[3].Do = func() error { _, _, err := call(http.MethodPost, compressURL, "", raw); return err }
	ops[4].Do = func() error {
		_, _, err := call(http.MethodPut, fmt.Sprintf("%s/v1/archives/soak-put-%d", ts.URL, puts.Add(1)%4), "", archive)
		return err
	}

	res := RunLoad(LoadSpec{Rate: 300, Duration: 1500 * time.Millisecond, Clients: 4, Seed: 1, Ops: ops})
	if res.Total.Count != 450 {
		t.Fatalf("300 req/s × 1.5 s scheduled %d requests, want 450", res.Total.Count)
	}
	for _, r := range append([]OpResult{res.Total}, res.Ops...) {
		p50, p99, p999, mx := r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999), r.Latency.Max()
		if !(p50 > 0) || p99 < p50 || p999 < p99 || mx < p999 {
			t.Fatalf("%s: quantiles not ordered: p50 %d p99 %d p999 %d max %d", r.Name, p50, p99, p999, mx)
		}
	}
	if ok := 100 * float64(res.Total.Count-res.Total.Errors) / float64(res.Total.Count); ok < 99 {
		t.Fatalf("soak ok-%% = %g — mixed traffic failing against a healthy server", ok)
	}
}

// call issues one request and requires a 2xx answer. It returns the
// drained body length and the response headers.
func call(method, url, accept string, body []byte) (int64, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return n, nil, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return n, resp.Header, nil
}
