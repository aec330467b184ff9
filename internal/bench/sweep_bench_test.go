package bench

import (
	"testing"
	"time"

	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
)

// BenchmarkLevelSweep times the STZ core on one worker over a 128³ Nyx
// float32 field (seed 1001, relative bound 1e-3) and reports, beside ns/op,
// what the finest level's sweep costs per predicted point (sweep-ns/pt):
// predict+quantise on encode (EncodeStats.Quantise), predict+dequantise on
// decode (Stats.LevelPredict). The sweep's stencil kernels and dequantise
// row are most of a decode, so this is the series that shows them.
func BenchmarkLevelSweep(b *testing.B) {
	g := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := g.Range()
	cfg := core.DefaultConfig(quant.AbsoluteBound(1e-3, float64(mn), float64(mx)))
	cfg.Workers = 1
	p := cfg.Levels - 2 // the finest predicted level
	// Its predicted points: the fine grid minus its coarse lattice.
	c := grid.SubDim(128, 0, 2)
	points := float64(len(g.Data) - c*c*c)
	perPoint := func(b *testing.B, sweep time.Duration) {
		b.ReportMetric(float64(sweep.Nanoseconds())/(float64(b.N)*points), "sweep-ns/pt")
	}

	b.Run("encode", func(b *testing.B) {
		if _, err := core.Compress(g, cfg); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		var sweep time.Duration
		for i := 0; i < b.N; i++ {
			_, st, err := core.CompressStats(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sweep += st.Quantise[p]
		}
		perPoint(b, sweep)
	})

	enc, err := core.Compress(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		r, err := core.NewReader[float32](enc)
		if err != nil {
			b.Fatal(err)
		}
		r.Workers = 1
		if _, err := r.Decompress(); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		var sweep time.Duration
		for i := 0; i < b.N; i++ {
			_, st, err := r.DecompressStats()
			if err != nil {
				b.Fatal(err)
			}
			sweep += st.LevelPredict[p]
		}
		perPoint(b, sweep)
	})
}
