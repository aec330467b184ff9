package bench

import (
	"fmt"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
	"stz/internal/scratch"
)

// The random-access benchmarks measure the query path the stzd archive
// store serves: a 16³ box out of a chunked 64³ archive. They report the
// two numbers that matter for a query service — ns/op and bytes read per
// queried voxel (the container's chunk-read accounting over the box
// volume) — and run under the same benchdiff regression gate as the
// codec benchmarks.

const raChunks = 8

func raGrid() *grid.Grid[float32] {
	return datasets.Nyx(64, 64, 64, 7)
}

func raBox() grid.Box {
	return grid.Box{Z0: 24, Y0: 24, X0: 24, Z1: 40, Y1: 40, X1: 40}
}

// BenchmarkRandomAccessBox is the cold-query cost: every iteration opens a
// fresh reader over the archive bytes and decodes the box, the pattern of
// a store serving each archive's first query (and every query, for
// backends with native sub-box decode, which cache nothing).
func BenchmarkRandomAccessBox(b *testing.B) {
	g := raGrid()
	box := raBox()
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 1e-3, Chunks: raChunks, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var read, payload int64
			b.SetBytes(int64(4 * box.Volume()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := codec.OpenReaderAt[float32](enc)
				if err != nil {
					b.Fatal(err)
				}
				r.Workers = 4
				if _, err := r.DecompressBox(box); err != nil {
					b.Fatal(err)
				}
				read, payload = r.BytesRead(), r.PayloadBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(read)/float64(box.Volume()), "readB/voxel")
			b.ReportMetric(100*float64(read)/float64(payload), "%payload")
		})
	}
}

// BenchmarkRandomAccessBoxWarm is the resident-archive steady state: one
// reader serves every query, so fallback backends amortize their slab
// decodes across iterations through the slab cache.
func BenchmarkRandomAccessBoxWarm(b *testing.B) {
	g := raGrid()
	box := raBox()
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 1e-3, Chunks: raChunks, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			r, err := codec.OpenReaderAt[float32](enc)
			if err != nil {
				b.Fatal(err)
			}
			r.Workers = 4
			if _, err := r.DecompressBox(box); err != nil { // warm the slab cache
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * box.Volume()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.DecompressBox(box); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomAccessFullDecode is the no-random-access baseline the box
// benchmarks are read against: decoding the whole archive to serve the
// same 16³ window.
func BenchmarkRandomAccessFullDecode(b *testing.B) {
	g := raGrid()
	box := raBox()
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 1e-3, Chunks: raChunks, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * box.Volume()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				full, err := codec.Decode[float32](enc, 4)
				if err != nil {
					b.Fatal(err)
				}
				_ = full.ExtractBox(box)
			}
		})
	}
}

// BenchmarkRandomAccessSTZ is the paper codec's native random access on a
// resident archive: one core.Reader over a 128³ default-config stream
// serving a 32³ box, an 8³ box and a z-slice. A box pays the level-1
// decode, the lane prefixes of the class streams its index hull touches,
// and its own prediction — sym-% reports the share of the finest level's
// symbols that went through the entropy decoder.
func BenchmarkRandomAccessSTZ(b *testing.B) {
	g := datasets.Nyx(128, 128, 128, 7)
	mn, mx := g.Range()
	cfg := core.DefaultConfig(quant.AbsoluteBound(1e-3, float64(mn), float64(mx)))
	enc, err := core.Compress(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.NewReader[float32](enc)
	if err != nil {
		b.Fatal(err)
	}
	cube := func(o, n int) grid.Box {
		return grid.Box{Z0: o, Y0: o, X0: o, Z1: o + n, Y1: o + n, X1: o + n}
	}
	for _, tc := range []struct {
		name string
		box  grid.Box
	}{
		{"box32", cube(40, 32)},
		{"box8", cube(44, 8)},
		{"sliceZ", grid.Box{Z0: 45, Z1: 46, Y1: 128, X1: 128}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var st *core.Stats
			b.SetBytes(int64(4 * tc.box.Volume()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, st, err = r.DecompressBox(tc.box); err != nil {
					b.Fatal(err)
				}
			}
			top := cfg.Levels - 2
			b.ReportMetric(100*float64(st.DecodedSymbols[top])/float64(st.TotalSymbols[top]), "sym-%")
		})
	}
}

// BenchmarkBox32VsGrid is the box-versus-grid probe: the same 32³ interior
// box of a default-config Nyx stream at 64³, 128³, 256³ and 512³ — Nyx's
// native size in the paper; the last two not under -short — decoded at
// Workers 2 with the scratch arenas off, so B/op counts every buffer the
// decode touches. A box that cost only its dependency cone would cost the
// same at every size; lvN-sym are the class symbols each predicted level
// entropy-decoded, the touched bricks of its class streams, and l1-ms and
// lvdec-ms the time a decode spent on the level-1 base (sz3's cone decode,
// which entropy-decodes the brick lanes holding its cone's codes) and on
// those class streams.
func BenchmarkBox32VsGrid(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			if testing.Short() && n > 128 {
				b.Skip("256³ and 512³ are skipped under -short")
			}
			g := datasets.Nyx(n, n, n, 7)
			mn, mx := g.Range()
			cfg := core.DefaultConfig(quant.AbsoluteBound(1e-3, float64(mn), float64(mx)))
			cfg.Workers = 2
			enc, err := core.Compress(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := core.NewReader[float32](enc)
			if err != nil {
				b.Fatal(err)
			}
			r.Workers = 2
			o := n/2 - 16
			box := grid.Box{Z0: o, Y0: o, X0: o, Z1: o + 32, Y1: o + 32, X1: o + 32}
			prev := scratch.SetEnabled(false)
			defer scratch.SetEnabled(prev)
			var st *core.Stats
			var l1, lvdec time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st, err = r.DecompressBox(box); err != nil {
					b.Fatal(err)
				}
				l1 += st.L1SZ3
				for _, d := range st.LevelDecode {
					lvdec += d
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
			b.ReportMetric(l1.Seconds()*1e3/float64(b.N), "l1-ms")
			b.ReportMetric(lvdec.Seconds()*1e3/float64(b.N), "lvdec-ms")
			for p := 0; p < cfg.Levels-1; p++ {
				b.ReportMetric(float64(st.DecodedSymbols[p]), fmt.Sprintf("lv%d-sym", p+2))
			}
		})
	}
}
