package codec

import (
	"math"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
)

// maxAbsErr returns the largest point-wise reconstruction error.
func maxAbsErr[T grid.Float](a, b *grid.Grid[T]) float64 {
	var worst float64
	for i := range a.Data {
		if e := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); e > worst {
			worst = e
		}
	}
	return worst
}

// roundTrip compresses and decompresses g through every registered codec
// and asserts the absolute error bound holds point-wise.
func roundTrip[T grid.Float](t *testing.T, g *grid.Grid[T], cfg Config) {
	t.Helper()
	mn, mx := g.Range()
	abs := cfg.Resolve(float64(mn), float64(mx)).EB
	for _, c := range All() {
		enc, err := Compress(c, g, cfg)
		if err != nil {
			t.Fatalf("%s: compress: %v", c.Name(), err)
		}
		dec, err := Decompress[T](c, enc, cfg.Workers)
		if err != nil {
			t.Fatalf("%s: decompress: %v", c.Name(), err)
		}
		if dec.Nz != g.Nz || dec.Ny != g.Ny || dec.Nx != g.Nx {
			t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d",
				c.Name(), dec.Nz, dec.Ny, dec.Nx, g.Nz, g.Ny, g.Nx)
		}
		if worst := maxAbsErr(g, dec); worst > abs*(1+1e-12) {
			t.Errorf("%s: max error %g exceeds bound %g", c.Name(), worst, abs)
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	nyx32 := datasets.Nyx(24, 20, 22, 7)
	nyx64 := grid.ToFloat64(nyx32)
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, cfg Config)
	}{
		{"f32/abs", Config{EB: 0.05}, func(t *testing.T, cfg Config) { roundTrip(t, nyx32, cfg) }},
		{"f32/rel", Config{EB: 1e-3, Mode: ModeRel}, func(t *testing.T, cfg Config) { roundTrip(t, nyx32, cfg) }},
		{"f64/abs", Config{EB: 0.05}, func(t *testing.T, cfg Config) { roundTrip(t, nyx64, cfg) }},
		{"f64/rel", Config{EB: 1e-3, Mode: ModeRel}, func(t *testing.T, cfg Config) { roundTrip(t, nyx64, cfg) }},
		{"f32/parallel", Config{EB: 0.05, Workers: 4}, func(t *testing.T, cfg Config) { roundTrip(t, nyx32, cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, tc.cfg) })
	}
}

// encodeRoundTrip runs the full chunked pipeline for every codec.
func encodeRoundTrip[T grid.Float](t *testing.T, g *grid.Grid[T], cfg Config) {
	t.Helper()
	mn, mx := g.Range()
	abs := cfg.Resolve(float64(mn), float64(mx)).EB
	for _, name := range Names() {
		enc, err := Encode(name, g, cfg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !IsEncoded(enc) {
			t.Fatalf("%s: IsEncoded = false on encoded stream", name)
		}
		hdr, err := ParseHeader(enc)
		if err != nil {
			t.Fatalf("%s: parse header: %v", name, err)
		}
		if hdr.Codec != name || hdr.Nz != g.Nz || hdr.Ny != g.Ny || hdr.Nx != g.Nx {
			t.Fatalf("%s: header %+v does not match input", name, hdr)
		}
		if hdr.Mode != cfg.Mode || hdr.EBRequested != cfg.EB || hdr.EBAbs <= 0 {
			t.Fatalf("%s: header bound fields %+v", name, hdr)
		}
		wantChunks := 1
		if cfg.Chunks > 0 {
			wantChunks = cfg.Chunks
		}
		if hdr.Chunks() != wantChunks {
			t.Fatalf("%s: %d chunks, want %d", name, hdr.Chunks(), wantChunks)
		}
		dec, err := Decode[T](enc, cfg.Workers)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if worst := maxAbsErr(g, dec); worst > abs*(1+1e-12) {
			t.Errorf("%s: max error %g exceeds bound %g", name, worst, abs)
		}
	}
}

func TestEncodeDecodeChunked(t *testing.T) {
	g32 := datasets.Nyx(32, 16, 16, 3)
	g64 := grid.ToFloat64(g32)
	t.Run("f32/serial", func(t *testing.T) {
		encodeRoundTrip(t, g32, Config{EB: 0.05})
	})
	t.Run("f32/chunked", func(t *testing.T) {
		encodeRoundTrip(t, g32, Config{EB: 0.05, Workers: 4, Chunks: 4})
	})
	t.Run("f64/chunked-rel", func(t *testing.T) {
		encodeRoundTrip(t, g64, Config{EB: 1e-3, Mode: ModeRel, Workers: 4, Chunks: 4})
	})
}

func TestAutoChunkPlanning(t *testing.T) {
	// 64 planes, 4 workers → 4 slabs of 16; shallow grids stay whole.
	if got := len(planChunkBounds(MustLookup("sz3"), 64, Config{Workers: 4})) - 1; got != 4 {
		t.Errorf("deep grid: %d chunks, want 4", got)
	}
	if got := len(planChunkBounds(MustLookup("sz3"), 8, Config{Workers: 8})) - 1; got != 1 {
		t.Errorf("shallow grid: %d chunks, want 1", got)
	}
	if got := len(planChunkBounds(MustLookup("sz3"), 1, Config{Workers: 8, Chunks: 5})) - 1; got != 1 {
		t.Errorf("single plane: %d chunks, want 1", got)
	}
}

func TestEncodeUnknownCodec(t *testing.T) {
	g := datasets.Nyx(4, 4, 4, 1)
	if _, err := Encode("lzma", g, Config{EB: 0.1}); err == nil {
		t.Error("Encode with unknown codec succeeded")
	}
}
