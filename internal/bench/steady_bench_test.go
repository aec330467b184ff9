package bench

import (
	"bytes"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/scratch"
)

// The steady-state benchmarks run many back-to-back round trips over the
// same 128³ float32 grid — the sustained-traffic regime stzd serves — so
// allocs/op and B/op reflect what the scratch pools recycle rather than
// first-call warm-up costs. They are the series the CI allocs/op gate
// watches (cmd/benchdiff compare -alloc-threshold).

func steadyGrid() *grid.Grid[float32] {
	return datasets.Nyx(128, 128, 128, 7)
}

func BenchmarkSteadyStateEncode(b *testing.B) {
	g := steadyGrid()
	cfg := codec.Config{EB: 1e-3, Workers: 4, Chunks: 4}
	for _, name := range codec.Names() {
		b.Run(name, func(b *testing.B) {
			if _, err := codec.Encode(name, g, cfg); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * len(g.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(name, g, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportPoolStats(b)
		})
	}
}

func BenchmarkSteadyStateDecode(b *testing.B) {
	g := steadyGrid()
	cfg := codec.Config{EB: 1e-3, Workers: 4, Chunks: 4}
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			if _, err := codec.Decode[float32](enc, 4); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * len(g.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode[float32](enc, 4); err != nil {
					b.Fatal(err)
				}
			}
			reportPoolStats(b)
		})
	}
}

func BenchmarkSteadyStateSTZ(b *testing.B) {
	g := steadyGrid()
	cfg := core.DefaultConfig(1e-3)
	cfg.Workers = 4

	b.Run("compress", func(b *testing.B) {
		if _, err := core.Compress(g, cfg); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		var sum core.EncodeStats
		for i := 0; i < b.N; i++ {
			_, st, err := core.CompressStats(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sum.Chain += st.Chain
			sum.L1Encode += st.L1Encode
			sum.Assemble += st.Assemble
			sum.Total += st.Total
			for p := range st.Quantise {
				sum.Quantise[0] += st.Quantise[p]
				sum.Entropy[0] += st.Entropy[p]
			}
		}
		// Where the write side goes, as shares of the summed wall time.
		share := func(name string, d time.Duration) {
			b.ReportMetric(100*float64(d)/float64(sum.Total), name)
		}
		share("chain-%", sum.Chain)
		share("l1-%", sum.L1Encode)
		share("quantise-%", sum.Quantise[0])
		share("entropy-%", sum.Entropy[0])
		share("assemble-%", sum.Assemble)
		reportPoolStats(b)
	})

	enc, err := core.Compress(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress", func(b *testing.B) {
		warm, err := core.NewReader[float32](enc)
		if err != nil {
			b.Fatal(err)
		}
		warm.Workers = 4
		if _, err := warm.Decompress(); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := core.NewReader[float32](enc)
			if err != nil {
				b.Fatal(err)
			}
			r.Workers = 4
			if _, err := r.Decompress(); err != nil {
				b.Fatal(err)
			}
		}
		reportPoolStats(b)
	})
}

func BenchmarkSteadyStateStream(b *testing.B) {
	g := steadyGrid()
	cfg := codec.Config{EB: 1e-3, Workers: 4, Chunks: 4}
	var buf bytes.Buffer
	sw, err := codec.NewWriter[float32](&buf, "sz3", g.Nz, g.Ny, g.Nx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Write(g.Data); err != nil {
		b.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()

	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink := bytes.NewBuffer(make([]byte, 0, len(enc)))
			sw, err := codec.NewWriter[float32](sink, "sz3", g.Nz, g.Ny, g.Nx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sw.Write(g.Data); err != nil {
				b.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				b.Fatal(err)
			}
		}
		reportPoolStats(b)
	})

	b.Run("read", func(b *testing.B) {
		if err := streamDecode(enc); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(g.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := streamDecode(enc); err != nil {
				b.Fatal(err)
			}
		}
		reportPoolStats(b)
	})
}

// reportPoolStats surfaces the scratch-arena hit rate alongside the standard
// metrics so pool effectiveness is visible in the benchmark series.
func reportPoolStats(b *testing.B) {
	s := scratch.GlobalStats()
	if total := s.Hits + s.Misses; total > 0 {
		b.ReportMetric(100*float64(s.Hits)/float64(total), "pool-hit-%")
	}
}
