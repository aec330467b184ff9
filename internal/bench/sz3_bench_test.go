package bench

import (
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
	"stz/internal/scratch"
	"stz/internal/sz3"
)

// BenchmarkSZ3Slab measures the unit of work behind every stzd miss and
// compress call: one 8×128×128 z-slab of the 128³ Nyx field (the slab a
// 16-chunk registry archive is made of) through the serial sz3 codec —
// encode, full decode, and the 32×32 window a cold 32³ box takes from each
// slab it crosses. ns/point is per point of the slab, whatever share of it
// the operation reconstructs. Steady state allocates the result and what
// the entropy coder does not pool, never a work grid.
func BenchmarkSZ3Slab(b *testing.B) {
	full := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := full.Range()
	opt := sz3.Options{EB: quant.AbsoluteBound(1e-3, float64(mn), float64(mx))}
	const plane = 128 * 128
	slab, err := grid.FromData(full.Data[64*plane:72*plane], 8, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sz3.Compress(slab, opt)
	if err != nil {
		b.Fatal(err)
	}
	window := grid.Box{Z1: 8, Y0: 40, Y1: 72, X0: 56, X1: 88}
	run := func(name string, op func() error) {
		b.Run(name, func(b *testing.B) {
			if err := op(); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slab.Len()), "ns/point")
		})
	}
	run("encode", func() error {
		_, err := sz3.Compress(slab, opt)
		return err
	})
	run("decode", func() error {
		g, err := sz3.DecompressWorkers[float32](enc, 1)
		if err == nil {
			scratch.ReleaseFloat(g.Data) // the result is a lease; a transient consumer hands it back
		}
		return err
	})
	run("box32", func() error {
		_, err := sz3.DecompressBox[float32](enc, window, 1)
		return err
	})
}
