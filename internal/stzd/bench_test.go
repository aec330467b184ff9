package stzd

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/quant"
)

// BenchmarkArchivePut times one quorum PUT through an in-process 3-node,
// Replicas 2 cluster. The body is the 16-chunk sz3 archive of Nyx 128³
// (seed 1001, rel 1e-3, 0.69 MB), the archive whose PUTs the repository
// benchmark's put_ms is made of. The node the client hits is an owner
// of the id, so each PUT is one body read, one local apply and one
// forwarded replica apply over localhost. B/op counts every node's
// allocations, the forward's included.
func BenchmarkArchivePut(b *testing.B) {
	g := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := g.Range()
	arch, err := codec.Encode("sz3", g, codec.Config{EB: quant.AbsoluteBound(1e-3, float64(mn), float64(mx)), Workers: 2, Chunks: 16})
	if err != nil {
		b.Fatal(err)
	}
	c := StartTestCluster(3, Options{Workers: 1, MaxInflight: 2, Replicas: 2, AntiEntropyInterval: -1})
	defer c.Close()
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("put-%d", i); indexOf(c.Nodes[0].ring.Owners(cand, 2), c.Addrs[0]) >= 0 {
			id = cand
		}
	}
	url := c.URL(0) + "/v1/archives/" + id
	put := func() {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(arch))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			b.Fatalf("PUT: status %d", resp.StatusCode)
		}
	}
	put() // warm the connections
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		put()
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/1e6/float64(b.N), "ms/op")
}
