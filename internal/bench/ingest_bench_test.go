package bench

import (
	"bytes"
	"io"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
	"stz/internal/rawio"
)

// BenchmarkIngestCompress is stzd's /v1/compress request in process: the
// raw little-endian bytes of the centred 64³ window of the 128³ Nyx field
// read by a streaming sz3 writer (two chunks, one worker, rel 1e-3 resolved
// to an absolute bound) straight into its slab leases, encoded and framed.
// It is the request body's decode, sz3's line kernels and the Huffman
// writer, with no HTTP around them; run it with -benchmem.
func BenchmarkIngestCompress(b *testing.B) {
	full := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := full.Range()
	cfg := codec.Config{EB: quant.AbsoluteBound(1e-3, float64(mn), float64(mx)), Workers: 1, Chunks: 2}
	win := full.ExtractBox(grid.Box{Z0: 32, Y0: 32, X0: 32, Z1: 96, Y1: 96, X1: 96})
	raw := make([]byte, 4*win.Len())
	rawio.PutValues(raw, win.Data)
	body := bytes.NewReader(raw)
	op := func() error {
		body.Reset(raw)
		sw, err := codec.NewWriter[float32](io.Discard, "sz3", win.Nz, win.Ny, win.Nx, cfg)
		if err != nil {
			return err
		}
		if _, err := sw.ReadFrom(body); err != nil {
			return err
		}
		return sw.Close()
	}
	if err := op(); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}
