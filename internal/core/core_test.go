package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/grid"
)

// testField fills a grid with a smooth function plus mild noise.
func testField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	g := grid.New[T](nz, ny, nx)
	rng := rand.New(rand.NewSource(seed))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(z)/6)*math.Cos(float64(y)/4) +
					0.7*math.Sin(float64(x)/8+0.5) + 0.02*rng.NormFloat64()
				g.Set(z, y, x, T(v))
			}
		}
	}
	return g
}

func checkBound[T grid.Float](t *testing.T, orig, rec *grid.Grid[T], eb float64, what string) {
	t.Helper()
	if orig.Len() != rec.Len() {
		t.Fatalf("%s: length mismatch %d vs %d", what, orig.Len(), rec.Len())
	}
	for i := range orig.Data {
		if d := math.Abs(float64(orig.Data[i]) - float64(rec.Data[i])); d > eb {
			t.Fatalf("%s: bound violated at %d: %g > %g", what, i, d, eb)
		}
	}
}

func TestRoundTripDefault3Level(t *testing.T) {
	g := testField[float64](24, 20, 28, 1)
	const eb = 1e-3
	enc, err := Compress(g, DefaultConfig(eb))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, eb, "3-level")
}

func TestRoundTrip2Level(t *testing.T) {
	g := testField[float64](16, 16, 16, 2)
	cfg := DefaultConfig(1e-3)
	cfg.Levels = 2
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, 1e-3, "2-level")
}

func TestRoundTripFloat32(t *testing.T) {
	g := testField[float32](20, 20, 20, 3)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, 1e-3, "float32")
}

func TestRoundTripAllPredictors(t *testing.T) {
	g := testField[float64](16, 16, 16, 4)
	for _, p := range []Predictor{PredDirect, PredLinear, PredCubic} {
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = p
		enc, err := Compress(g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		dec, err := Decompress[float64](enc)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		checkBound(t, g, dec, 1e-3, p.String())
	}
}

func TestRoundTripResidualSZ3(t *testing.T) {
	g := testField[float64](16, 16, 16, 5)
	cfg := DefaultConfig(1e-3)
	cfg.Residual = ResidSZ3
	cfg.Levels = 2
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	// The SZ3-residual ablation path is bound on the residual before the
	// final add, so allow float rounding slack.
	checkBound(t, g, dec, 1e-3*(1+1e-9), "resid-sz3")
}

func TestRoundTripPartitionOnly(t *testing.T) {
	g := testField[float64](16, 16, 16, 6)
	cfg := DefaultConfig(1e-3)
	cfg.PartitionOnly = true
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, 1e-3, "partition-only")
}

func TestRoundTrip2D(t *testing.T) {
	g := testField[float64](1, 40, 40, 7)
	enc, err := Compress(g, DefaultConfig(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, 1e-4, "2D")
}

func TestRoundTripOddDims(t *testing.T) {
	for _, dims := range [][3]int{{15, 9, 21}, {13, 13, 13}, {8, 8, 9}, {5, 5, 5}, {4, 4, 4}, {17, 4, 4}} {
		g := testField[float32](dims[0], dims[1], dims[2], 8)
		enc, err := Compress(g, DefaultConfig(1e-3))
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		dec, err := Decompress[float32](enc)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		checkBound(t, g, dec, 1e-3, "odd dims")
	}
}

func TestNoAdaptiveEB(t *testing.T) {
	g := testField[float64](16, 16, 16, 9)
	cfg := DefaultConfig(1e-3)
	cfg.AdaptiveEB = false
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, 1e-3, "no-adaptive")
}

// TestParallelMatchesSerial: the archive does not depend on the worker
// count. It matters under -race (CI's race leg runs it): the lane writers of
// a class share one section buffer, each storing into its own bytes only.
// Nothing in the entropy stage can wrap at any worker count either:
// codec.CheckDims caps a stream at 2³³ symbols, 2³¹ per lane, below the
// encoder's uint32 lane counters.
func TestParallelMatchesSerial(t *testing.T) {
	t.Run("f32", parallelMatchesSerial[float32])
	t.Run("f64", parallelMatchesSerial[float64])
}

func parallelMatchesSerial[T grid.Float](t *testing.T) {
	g := testField[T](41, 36, 44, 10) // finest classes of ~8 Ki codes: two chunks of 4096
	// The ResidSZ3 ablation's sweep tasks build their own sections, and a
	// base codec that cannot hand back its reconstruction is decoded
	// instead: two more paths through the write side's phases.
	for name, set := range map[string]func(*Config){
		"residsz3": func(c *Config) { c.Residual = ResidSZ3 },
		"zfp-base": func(c *Config) { c.BaseCodec = "zfp" },
	} {
		cfg := DefaultConfig(1e-3)
		set(&cfg)
		cfg.Workers = 1
		serial, err := Compress(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			cfg.Workers = workers
			if par, err := Compress(g, cfg); err != nil || !bytes.Equal(serial, par) {
				t.Fatalf("%s: %d workers produced a different stream (err %v)", name, workers, err)
			}
		}
	}
	for _, levels := range []int{2, 3, 4} {
		for _, chunk := range []int{0, 4096} {
			cfg := DefaultConfig(1e-3)
			cfg.Levels, cfg.CodeChunk, cfg.Workers = levels, chunk, 1
			serial, err := Compress(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 5, 8} {
				cfg.Workers = workers
				par, err := Compress(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serial, par) {
					t.Fatalf("levels %d, CodeChunk %d: %d workers produced a different stream", levels, chunk, workers)
				}
			}
			// Parallel decode must match too.
			r, err := NewReader[T](serial)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = 8
			decPar, err := r.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			decSer, err := Decompress[T](serial)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(decSer.Data, decPar.Data) {
				t.Fatalf("levels %d, CodeChunk %d: parallel decode differs from serial", levels, chunk)
			}
		}
	}
}

func TestProgressiveLevels(t *testing.T) {
	g := testField[float64](32, 32, 32, 11)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Progressive(3)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, full, 1e-3, "progressive full")

	// Level 2 must equal the stride-2 class-0 sampling of the full recon.
	l2, err := r.Progressive(2)
	if err != nil {
		t.Fatal(err)
	}
	wantL2 := full.ExtractStride(grid.Offset3{}, 2)
	if l2.Len() != wantL2.Len() {
		t.Fatalf("level-2 size %d want %d", l2.Len(), wantL2.Len())
	}
	for i := range wantL2.Data {
		if l2.Data[i] != wantL2.Data[i] {
			t.Fatalf("level-2 progressive mismatch at %d", i)
		}
	}

	// Level 1 must equal the stride-4 sampling.
	l1, err := r.Progressive(1)
	if err != nil {
		t.Fatal(err)
	}
	wantL1 := wantL2.ExtractStride(grid.Offset3{}, 2)
	if l1.Len() != wantL1.Len() {
		t.Fatalf("level-1 size %d want %d", l1.Len(), wantL1.Len())
	}
	for i := range wantL1.Data {
		if l1.Data[i] != wantL1.Data[i] {
			t.Fatalf("level-1 progressive mismatch at %d", i)
		}
	}

	if _, err := r.Progressive(0); err == nil {
		t.Fatal("level 0 accepted")
	}
	if _, err := r.Progressive(4); err == nil {
		t.Fatal("level 4 accepted")
	}
}

func TestProgressiveCoarseWithinLooseBound(t *testing.T) {
	// The coarse levels are a *sampling*, so against the sampled original
	// they must respect their own (tighter) adaptive bounds.
	g := testField[float64](32, 32, 32, 12)
	cfg := DefaultConfig(1e-3)
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader[float64](enc)
	l1, err := r.Progressive(1)
	if err != nil {
		t.Fatal(err)
	}
	origL1 := g.ExtractStride(grid.Offset3{}, 2).ExtractStride(grid.Offset3{}, 2)
	checkBound(t, origL1, l1, cfg.levelEB(1), "level-1 bound")
}

func TestRandomAccessBoxMatchesFull(t *testing.T) {
	g := testField[float64](32, 28, 36, 13)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		z0, y0, x0 := rng.Intn(30), rng.Intn(26), rng.Intn(34)
		b := grid.Box{
			Z0: z0, Y0: y0, X0: x0,
			Z1: z0 + 1 + rng.Intn(32-z0), Y1: y0 + 1 + rng.Intn(28-y0), X1: x0 + 1 + rng.Intn(36-x0),
		}
		got, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatalf("box %+v: %v", b, err)
		}
		want := full.ExtractBox(b)
		if got.Len() != want.Len() {
			t.Fatalf("box %+v: size %d want %d", b, got.Len(), want.Len())
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("box %+v: random access differs from full at %d", b, i)
			}
		}
	}
}

func TestRandomAccessSliceMatchesFull(t *testing.T) {
	g := testField[float32](24, 24, 24, 14)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []int{0, 1, 7, 8, 12, 23} {
		sl, st, err := r.DecompressSliceZ(z)
		if err != nil {
			t.Fatalf("slice %d: %v", z, err)
		}
		if sl.Nz != 1 || sl.Ny != 24 || sl.Nx != 24 {
			t.Fatalf("slice dims %d %d %d", sl.Nz, sl.Ny, sl.Nx)
		}
		for y := 0; y < 24; y++ {
			for x := 0; x < 24; x++ {
				if sl.At(0, y, x) != full.At(z, y, x) {
					t.Fatalf("slice %d mismatch at (%d,%d)", z, y, x)
				}
			}
		}
		// Even-z slices must skip the four z-offset classes at level 3.
		if z%2 == 0 && st.SkippedClasses[1] < 4 {
			t.Fatalf("even slice %d: only %d level-3 classes skipped", z, st.SkippedClasses[1])
		}
	}
}

func TestSliceDecodeSavings(t *testing.T) {
	// The headline Table 4 property: an even 2D slice decodes only 3 of 7
	// level-3 class streams.
	g := testField[float64](32, 32, 32, 15)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	r, _ := NewReader[float64](enc)
	_, st, err := r.DecompressSliceZ(16)
	if err != nil {
		t.Fatal(err)
	}
	if st.DecodedClasses[1] != 3 {
		t.Fatalf("even slice decoded %d level-3 classes, want 3", st.DecodedClasses[1])
	}
	if st.SkippedClasses[1] != 4 {
		t.Fatalf("even slice skipped %d level-3 classes, want 4", st.SkippedClasses[1])
	}
}

func TestRandomAccessBoxOutOfRange(t *testing.T) {
	g := testField[float64](8, 8, 8, 16)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	r, _ := NewReader[float64](enc)
	if _, _, err := r.DecompressBox(grid.Box{Z0: 9, Z1: 10, Y1: 1, X1: 1}); !errors.Is(err, codec.ErrBox) {
		t.Fatalf("out-of-range box: err=%v, want codec.ErrBox", err)
	}
	if _, _, err := r.DecompressSliceZ(-1); err == nil {
		t.Fatal("negative slice accepted")
	}
	// A partially overlapping box is rejected with the unified error — no
	// silent clipping (callers that want clip semantics clip explicitly).
	oob := grid.Box{Z0: 6, Z1: 20, Y0: 0, Y1: 8, X0: 0, X1: 8}
	if _, _, err := r.DecompressBox(oob); !errors.Is(err, codec.ErrBox) {
		t.Fatalf("partially overlapping box: err=%v, want codec.ErrBox", err)
	}
	got, _, err := r.DecompressBox(oob.Clip(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nz != 2 {
		t.Fatalf("caller-clipped box Nz=%d want 2", got.Nz)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	g := testField[float32](8, 10, 12, 17)
	cfg := DefaultConfig(0.01)
	cfg.Levels = 2
	cfg.Predictor = PredLinear
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.Fz != 8 || h.Fy != 10 || h.Fx != 12 {
		t.Fatalf("dims %d %d %d", h.Fz, h.Fy, h.Fx)
	}
	if h.Levels != 2 || h.Predictor != PredLinear || h.EB != 0.01 || !h.AdaptiveEB {
		t.Fatalf("header %+v", h)
	}
	if h.DType != 4 {
		t.Fatalf("dtype %d", h.DType)
	}
}

func TestWrongTypeRejected(t *testing.T) {
	g := testField[float64](8, 8, 8, 18)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	if _, err := NewReader[float32](enc); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
}

func TestGarbageRejected(t *testing.T) {
	if _, err := NewReader[float64]([]byte("not a stream")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewReader[float64](nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestTruncatedRejected(t *testing.T) {
	g := testField[float64](12, 12, 12, 19)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	for cut := 0; cut < len(enc); cut += 97 {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic at cut %d: %v", cut, p)
				}
			}()
			r, err := NewReader[float64](enc[:cut])
			if err != nil {
				return
			}
			_, _ = r.Decompress()
		}()
	}
}

func TestInvalidConfig(t *testing.T) {
	g := testField[float64](8, 8, 8, 20)
	bad := []Config{
		{EB: 0, Levels: 3},
		{EB: -1, Levels: 3},
		{EB: math.Inf(1), Levels: 3},
		{EB: 1e-3, Levels: 1},
		{EB: 1e-3, Levels: 5},
		{EB: 1e-3, Levels: 3, Predictor: 99},
		{EB: 1e-3, Levels: 3, Residual: 99},
	}
	for i, cfg := range bad {
		if _, err := Compress(g, cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Compress(grid.New[float64](0, 0, 0), DefaultConfig(1e-3)); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestAdaptiveEBLevels(t *testing.T) {
	cfg := DefaultConfig(1.0)
	if got := cfg.levelEB(3); got != 1.0 {
		t.Fatalf("level 3 eb=%g", got)
	}
	if got := cfg.levelEB(2); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("level 2 eb=%g want 0.4", got)
	}
	if got := cfg.levelEB(1); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("level 1 eb=%g want 0.16", got)
	}
	cfg.AdaptiveEB = false
	if got := cfg.levelEB(1); got != 1.0 {
		t.Fatalf("non-adaptive level 1 eb=%g", got)
	}
}

func TestDeterministicStream(t *testing.T) {
	g := testField[float64](16, 16, 16, 21)
	a, _ := Compress(g, DefaultConfig(1e-3))
	b, _ := Compress(g, DefaultConfig(1e-3))
	if !bytes.Equal(a, b) {
		t.Fatal("compression not deterministic")
	}
}

func TestOutlierHeavy(t *testing.T) {
	// Spiky data exercises the escape path through all levels.
	g := grid.New[float64](16, 16, 16)
	rng := rand.New(rand.NewSource(22))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
		if rng.Intn(10) == 0 {
			g.Data[i] *= 1e15
		}
	}
	const eb = 1e-6
	enc, err := Compress(g, DefaultConfig(eb))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, dec, eb, "outlier-heavy")
}

func TestOutlierRandomAccessConsistency(t *testing.T) {
	// Outlier indexing under box restriction is the subtle path: force many
	// escapes and verify box == full region.
	g := grid.New[float64](20, 20, 20)
	rng := rand.New(rand.NewSource(23))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
		if rng.Intn(5) == 0 {
			g.Data[i] *= 1e12
		}
	}
	enc, err := Compress(g, DefaultConfig(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader[float64](enc)
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	b := grid.Box{Z0: 3, Y0: 5, X0: 7, Z1: 15, Y1: 13, X1: 18}
	got, _, err := r.DecompressBox(b)
	if err != nil {
		t.Fatal(err)
	}
	want := full.ExtractBox(b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("outlier box mismatch at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestStatsPopulated: the stage timers are each at most the wall-clock
// Total — the base and class decodes run in one concurrent phase and each
// timer spans only its own tasks — and the class-stream accounting of a
// pinned box and a pinned slice is what the plan's geometry decides, the
// same at every worker count: whole bricks of the classes the region
// touches (a 16³ class grid is two 8×16×16 bricks, an 8³ one a single
// brick).
func TestStatsPopulated(t *testing.T) {
	g := testField[float64](32, 32, 32, 24)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	r, _ := NewReader[float64](enc)
	type counts struct{ decoded, skipped, symbols [3]int }
	pinned := []struct {
		box  grid.Box
		want counts
	}{
		{grid.Box{Z0: 5, Z1: 17, Y0: 9, Y1: 20, X0: 3, X1: 30}, counts{[3]int{7, 7}, [3]int{}, [3]int{7 * 512, 10 * 2048}}},
		{grid.Box{Z0: 6, Z1: 7, Y1: 32, X1: 32}, counts{[3]int{4, 3}, [3]int{3, 4}, [3]int{4 * 512, 3 * 2048}}},
	}
	for _, workers := range []int{1, 2, 4} {
		r.Workers = workers
		_, st, err := r.DecompressStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Total <= 0 {
			t.Fatal("total time not recorded")
		}
		if st.DecodedClasses[0] != 7 || st.DecodedClasses[1] != 7 {
			t.Fatalf("decoded classes %v", st.DecodedClasses)
		}
		timers := map[string]time.Duration{"L1SZ3": st.L1SZ3}
		for p := 0; p < 2; p++ {
			timers[fmt.Sprintf("LevelDecode[%d]", p)] = st.LevelDecode[p]
			timers[fmt.Sprintf("LevelPredict[%d]", p)] = st.LevelPredict[p]
			timers[fmt.Sprintf("LevelRecon[%d]", p)] = st.LevelRecon[p]
		}
		for name, d := range timers {
			if d < 0 || d > st.Total {
				t.Errorf("w%d: %s = %v, want within [0, Total = %v]", workers, name, d, st.Total)
			}
		}
		for _, pc := range pinned {
			_, st, err := r.DecompressBox(pc.box)
			if err != nil {
				t.Fatal(err)
			}
			if got := (counts{st.DecodedClasses, st.SkippedClasses, st.DecodedSymbols}); got != pc.want {
				t.Errorf("w%d box %+v: decoded/skipped classes and symbols %v, want %v", workers, pc.box, got, pc.want)
			}
		}
	}
}

// TestEncodeStatsPopulated: the write side's stage timers. Stages that
// share a phase overlap, so none is compared with the others' sum; each is
// positive for a stage the configuration runs, zero for one it does not,
// and within Total. Plan is part of Entropy, and the escape counts are the
// same at every worker count.
func TestEncodeStatsPopulated(t *testing.T) {
	g := testField[float32](40, 36, 44, 25)
	var outliers [3]int
	for _, resid := range []ResidualCoder{ResidQuant, ResidSZ3} {
		for _, workers := range []int{1, 2, 4} {
			cfg := DefaultConfig(1e-4)
			cfg.Residual, cfg.Workers = resid, workers
			_, st, err := CompressStats(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/w%d", resid, workers)
			timers := map[string]time.Duration{"Chain": st.Chain, "L1Encode": st.L1Encode, "Assemble": st.Assemble}
			for p := 0; p < 3; p++ {
				timers[fmt.Sprintf("Quantise[%d]", p)] = st.Quantise[p]
				timers[fmt.Sprintf("Entropy[%d]", p)] = st.Entropy[p]
				timers[fmt.Sprintf("Plan[%d]", p)] = st.Plan[p]
			}
			for stage, d := range timers {
				ran := !strings.HasSuffix(stage, "[2]") && // three levels: two predicted
					!(resid == ResidSZ3 && (strings.HasPrefix(stage, "Quantise") || strings.HasPrefix(stage, "Plan")))
				if (d > 0) != ran || d > st.Total {
					t.Errorf("%s: %s = %v (stage runs: %v), want within (0, Total = %v] exactly when it runs", name, stage, d, ran, st.Total)
				}
			}
			for p := range st.Plan {
				if st.Plan[p] > st.Entropy[p] {
					t.Errorf("%s: Plan[%d] %v exceeds Entropy[%d] %v", name, p, st.Plan[p], p, st.Entropy[p])
				}
			}
			if resid == ResidQuant {
				if workers == 1 {
					outliers = st.Outliers
				} else if st.Outliers != outliers {
					t.Errorf("%s: outliers %v, want %v as at one worker", name, st.Outliers, outliers)
				}
			}
		}
	}
	if outliers[0]+outliers[1] == 0 {
		t.Error("no escapes: the field does not exercise the escape counts")
	}
}

func TestCompressionBeatsNaivePartitionOnSmoothData(t *testing.T) {
	// The whole point of hierarchical prediction (Fig. 5): at the same
	// bound, STZ must compress better than the naive partition ablation.
	g := testField[float64](32, 32, 32, 25)
	cfg := DefaultConfig(1e-4)
	hier, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig(1e-4)
	cfg2.PartitionOnly = true
	part, err := Compress(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hier) > len(part) {
		t.Fatalf("hierarchical (%d) worse than naive partition (%d)", len(hier), len(part))
	}
}

func TestRoundTrip4Level(t *testing.T) {
	g := testField[float64](40, 40, 40, 40)
	cfg := DefaultConfig(1e-3)
	cfg.Levels = 4
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, g, full, 1e-3, "4-level")

	// Progressive chain: each level equals the stride sampling of full.
	ref := full
	for lv := 3; lv >= 1; lv-- {
		ref = ref.ExtractStride(grid.Offset3{}, 2)
		rec, err := r.Progressive(lv)
		if err != nil {
			t.Fatalf("level %d: %v", lv, err)
		}
		if rec.Len() != ref.Len() {
			t.Fatalf("level %d size %d want %d", lv, rec.Len(), ref.Len())
		}
		for i := range ref.Data {
			if rec.Data[i] != ref.Data[i] {
				t.Fatalf("level %d mismatch at %d", lv, i)
			}
		}
	}
	// The coarsest level of a 4-level stream is 1/512 of the volume.
	l1, _ := r.Progressive(1)
	if l1.Len() != 5*5*5 {
		t.Fatalf("level-1 size %d want 125", l1.Len())
	}
}

func TestRandomAccess4Level(t *testing.T) {
	g := testField[float32](36, 36, 36, 41)
	cfg := DefaultConfig(1e-3)
	cfg.Levels = 4
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		z0, y0, x0 := rng.Intn(30), rng.Intn(30), rng.Intn(30)
		b := grid.Box{Z0: z0, Y0: y0, X0: x0,
			Z1: z0 + 1 + rng.Intn(6), Y1: y0 + 1 + rng.Intn(6), X1: x0 + 1 + rng.Intn(6)}
		got, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatalf("box %+v: %v", b, err)
		}
		want := full.ExtractBox(b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("4-level box %+v differs at %d", b, i)
			}
		}
	}
}
