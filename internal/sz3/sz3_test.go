package sz3

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stz/internal/grid"
	"stz/internal/metrics"
)

// smoothField fills a grid with a smooth trigonometric function plus mild
// noise — the regime interpolation predictors are designed for.
func smoothField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	g := grid.New[T](nz, ny, nx)
	rng := rand.New(rand.NewSource(seed))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(z)/7)*math.Cos(float64(y)/5) +
					0.5*math.Sin(float64(x)/9) + 0.01*rng.NormFloat64()
				g.Set(z, y, x, T(v))
			}
		}
	}
	return g
}

func TestTraversalCoversEveryPointOnce(t *testing.T) {
	for _, dims := range [][3]int{
		{8, 8, 8}, {7, 5, 9}, {1, 16, 16}, {1, 1, 33}, {2, 2, 2}, {5, 1, 1},
		{1, 1, 1}, {3, 3, 3}, {16, 1, 4},
	} {
		g := grid.New[float64](dims[0], dims[1], dims[2])
		seen := make([]int, g.Len())
		forEachAnchor(g, func(idx int) { seen[idx]++ })
		forEachPredicted(g, func(idx int, pred float64) { seen[idx]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("dims %v: point %d visited %d times", dims, i, c)
			}
		}
	}
}

func TestTraversalPredictsOnlyFromProcessed(t *testing.T) {
	// Mark each point as it is processed; every prediction neighbour access
	// is implicitly validated by reconstructing with a sentinel: points are
	// NaN until processed, so any prediction reading an unprocessed point
	// yields NaN.
	g := grid.New[float64](9, 6, 7)
	for i := range g.Data {
		g.Data[i] = math.NaN()
	}
	forEachAnchor(g, func(idx int) { g.Data[idx] = 1 })
	forEachPredicted(g, func(idx int, pred float64) {
		if math.IsNaN(pred) {
			t.Fatalf("prediction at %d read an unprocessed point", idx)
		}
		g.Data[idx] = 1
	})
}

func testRoundTrip[T grid.Float](t *testing.T, g *grid.Grid[T], eb float64) {
	t.Helper()
	enc, err := Compress(g, DefaultOptions(eb))
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dec, err := Decompress[T](enc)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if dec.Nz != g.Nz || dec.Ny != g.Ny || dec.Nx != g.Nx {
		t.Fatalf("dims mismatch")
	}
	for i := range g.Data {
		if d := math.Abs(float64(g.Data[i]) - float64(dec.Data[i])); d > eb {
			t.Fatalf("error bound violated at %d: |%g| > %g", i, d, eb)
		}
	}
}

func TestRoundTripFloat64(t *testing.T) {
	g := smoothField[float64](16, 16, 16, 1)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTripFloat32(t *testing.T) {
	g := smoothField[float32](16, 16, 16, 2)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTrip2D(t *testing.T) {
	g := smoothField[float64](1, 64, 64, 3)
	testRoundTrip(t, g, 1e-4)
}

func TestRoundTrip1D(t *testing.T) {
	g := smoothField[float64](1, 1, 500, 4)
	testRoundTrip(t, g, 1e-4)
}

func TestRoundTripOddDims(t *testing.T) {
	g := smoothField[float32](13, 7, 29, 5)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTripTiny(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {1, 2, 3}, {3, 1, 1}} {
		g := smoothField[float64](dims[0], dims[1], dims[2], 6)
		testRoundTrip(t, g, 1e-3)
	}
}

func TestRandomDataErrorBound(t *testing.T) {
	// Pure noise is nearly incompressible but the bound must still hold.
	g := grid.New[float64](12, 12, 12)
	rng := rand.New(rand.NewSource(7))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64() * 100
	}
	testRoundTrip(t, g, 0.5)
}

func TestConstantField(t *testing.T) {
	g := grid.New[float32](8, 8, 8)
	for i := range g.Data {
		g.Data[i] = 3.25
	}
	enc, err := Compress(g, DefaultOptions(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(float64(g.Data[i]-dec.Data[i])) > 1e-6 {
			t.Fatal("constant field bound violated")
		}
	}
	// A constant field must compress extremely well.
	if len(enc) > g.Len() {
		t.Fatalf("constant field barely compressed: %d bytes for %d values", len(enc), g.Len())
	}
}

func TestOutlierHeavyField(t *testing.T) {
	// Alternating huge spikes force the escape path.
	g := grid.New[float64](1, 1, 256)
	for i := range g.Data {
		if i%2 == 0 {
			g.Data[i] = 1e18
		} else {
			g.Data[i] = -1e18
		}
	}
	testRoundTrip(t, g, 1e-9)
}

func TestCompressionRatioOnSmoothData(t *testing.T) {
	g := smoothField[float32](32, 32, 32, 8)
	enc, err := Compress(g, DefaultOptions(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.Ratio{OriginalBytes: g.Len() * 4, CompressedBytes: len(enc)}
	if r.CR() < 4 {
		t.Fatalf("smooth field CR only %.2f", r.CR())
	}
}

func TestDeterministic(t *testing.T) {
	g := smoothField[float64](10, 11, 12, 9)
	a, _ := Compress(g, DefaultOptions(1e-3))
	b, _ := Compress(g, DefaultOptions(1e-3))
	if !bytes.Equal(a, b) {
		t.Fatal("serial compression not deterministic")
	}
}

func TestInvalidOptions(t *testing.T) {
	g := smoothField[float64](4, 4, 4, 10)
	if _, err := Compress(g, Options{EB: 0}); err == nil {
		t.Fatal("zero EB accepted")
	}
	if _, err := Compress(g, Options{EB: math.NaN()}); err == nil {
		t.Fatal("NaN EB accepted")
	}
	if _, err := Compress(g, Options{EB: -1}); err == nil {
		t.Fatal("negative EB accepted")
	}
}

func TestDecompressWrongType(t *testing.T) {
	g := smoothField[float64](4, 4, 4, 11)
	enc, _ := Compress(g, DefaultOptions(1e-3))
	if _, err := Decompress[float32](enc); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress[float64]([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decompress[float64](make([]byte, 100)); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestDecompressTruncated(t *testing.T) {
	g := smoothField[float64](8, 8, 8, 12)
	enc, _ := Compress(g, DefaultOptions(1e-3))
	for cut := 0; cut < len(enc); cut += 53 {
		if _, err := Decompress[float64](enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecompressCraftedHeader: header fields that size an allocation are
// checked against the stream first — a radius no uint16 code needs, and
// dims (wrapping or merely huge) the payload could not hold a bit per point
// of, in both the serial and the chunked framing.
func TestDecompressCraftedHeader(t *testing.T) {
	g := smoothField[float32](16, 16, 16, 12)
	for _, workers := range []int{1, 4} {
		enc, err := Compress(g, Options{EB: 1e-3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		crafted := map[string]func(b []byte){
			"dims 2048³":     func(b []byte) { b[9], b[13], b[17] = 8, 8, 8 },
			"dims 2³¹·2³¹·4": func(b []byte) { b[8], b[11], b[12], b[15], b[16] = 0, 0x80, 0, 0x80, 4 },
		}
		if workers == 1 {
			crafted["radius 1<<30"] = func(b []byte) { b[28], b[29], b[30], b[31] = 0, 0, 0, 0x40 }
		}
		for name, mut := range crafted {
			bad := append([]byte(nil), enc...)
			mut(bad)
			if _, err := Decompress[float32](bad); err == nil {
				t.Errorf("workers=%d: %s accepted", workers, name)
			}
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	g := smoothField[float32](32, 16, 16, 13)
	o := DefaultOptions(1e-3)
	o.Workers = 4
	enc, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(float64(g.Data[i]-dec.Data[i])) > 1e-3 {
			t.Fatal("chunked bound violated")
		}
	}
}

func TestChunkedCRDrop(t *testing.T) {
	// The paper notes SZ3-OMP loses compression ratio; chunking must not
	// (significantly) improve on serial.
	g := smoothField[float32](64, 32, 32, 14)
	serial, err := Compress(g, DefaultOptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(1e-3)
	o.Workers = 8
	chunked, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(chunked)) < 0.95*float64(len(serial)) {
		t.Fatalf("chunked (%d) should not beat serial (%d)", len(chunked), len(serial))
	}
}

func TestChunkedMoreChunksThanZ(t *testing.T) {
	g := smoothField[float64](3, 8, 8, 15)
	o := DefaultOptions(1e-3)
	o.Workers = 8
	enc, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(g.Data[i]-dec.Data[i]) > 1e-3 {
			t.Fatal("bound violated")
		}
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	f := func(seed int64, dz, dy, dx uint8, ebRaw uint16) bool {
		nz, ny, nx := int(dz)%6+1, int(dy)%6+1, int(dx)%6+1
		eb := float64(ebRaw%1000+1) / 10000
		g := grid.New[float64](nz, ny, nx)
		rng := rand.New(rand.NewSource(seed))
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		enc, err := Compress(g, DefaultOptions(eb))
		if err != nil {
			return false
		}
		dec, err := Decompress[float64](enc)
		if err != nil {
			return false
		}
		for i := range g.Data {
			if math.Abs(g.Data[i]-dec.Data[i]) > eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRateDistortionMonotone(t *testing.T) {
	// Larger error bounds must not produce larger streams.
	g := smoothField[float32](24, 24, 24, 16)
	prev := -1
	for _, eb := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		enc, err := Compress(g, DefaultOptions(eb))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(enc) > prev+prev/10 {
			t.Fatalf("eb=%g produced larger stream (%d) than tighter bound (%d)", eb, len(enc), prev)
		}
		prev = len(enc)
	}
}

// TestRandomAccessBoxMatchesFull checks the native sub-box decoder against
// the corresponding window of a full decompression, byte for byte, over
// serial and chunked streams and both element types.
func TestRandomAccessBoxMatchesFull(t *testing.T) {
	const nz, ny, nx = 30, 22, 26
	g := smoothField[float32](nz, ny, nx, 21)
	for _, o := range []Options{
		DefaultOptions(1e-3),
		{EB: 1e-3, Workers: 4, Chunks: 5},
	} {
		enc, err := Compress(g, o)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decompress[float32](enc)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		boxes := []grid.Box{
			{Z1: nz, Y1: ny, X1: nx},
			{Z0: nz - 1, Y0: ny - 1, X0: nx - 1, Z1: nz, Y1: ny, X1: nx},
			{Z0: 11, Y0: 3, X0: 7, Z1: 19, Y1: 17, X1: 23}, // spans chunk boundaries
		}
		for i := 0; i < 10; i++ {
			z0, y0, x0 := rng.Intn(nz), rng.Intn(ny), rng.Intn(nx)
			boxes = append(boxes, grid.Box{
				Z0: z0, Y0: y0, X0: x0,
				Z1: z0 + 1 + rng.Intn(nz-z0), Y1: y0 + 1 + rng.Intn(ny-y0), X1: x0 + 1 + rng.Intn(nx-x0),
			})
		}
		for _, b := range boxes {
			got, err := DecompressBox[float32](enc, b, 2)
			if err != nil {
				t.Fatalf("chunks=%d box %+v: %v", o.Chunks, b, err)
			}
			want := full.ExtractBox(b)
			if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
				t.Fatalf("box %+v: dims %dx%dx%d", b, got.Nz, got.Ny, got.Nx)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("chunks=%d box %+v: differs from full at %d", o.Chunks, b, i)
				}
			}
		}
	}

	g64 := smoothField[float64](17, 9, 13, 23)
	enc, err := Compress(g64, Options{EB: 1e-4, Workers: 2, Chunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.Box{Z0: 4, Y0: 2, X0: 5, Z1: 13, Y1: 8, X1: 11}
	got, err := DecompressBox[float64](enc, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := full.ExtractBox(b)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("f64 box differs from full at %d", i)
		}
	}
}

// TestRandomAccessBoxRejectsBadBoxes checks the package-local validation
// (empty, inverted, out of bounds) on both stream variants.
func TestRandomAccessBoxRejectsBadBoxes(t *testing.T) {
	g := smoothField[float32](10, 10, 10, 24)
	for _, o := range []Options{DefaultOptions(1e-3), {EB: 1e-3, Workers: 2, Chunks: 2}} {
		enc, err := Compress(g, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []grid.Box{
			{},
			{Z0: 5, Z1: 5, Y1: 10, X1: 10},
			{Z0: 7, Z1: 3, Y1: 10, X1: 10},
			{Z0: -1, Z1: 10, Y1: 10, X1: 10},
			{Z1: 11, Y1: 10, X1: 10},
			{Z1: 10, Y1: 10, X0: 4, X1: 14},
		} {
			if _, err := DecompressBox[float32](enc, b, 1); err == nil {
				t.Errorf("chunks=%d: box %+v accepted", o.Chunks, b)
			}
		}
	}
}
