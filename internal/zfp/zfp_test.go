package zfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stz/internal/bitio"

	"stz/internal/grid"
)

func TestSPairInvertible(t *testing.T) {
	f := func(a, b int32) bool {
		// Keep a+b in range.
		a %= 1 << 28
		b %= 1 << 28
		s, d := fwdPair(a, b)
		ra, rb := invPair(s, d)
		return ra == a && rb == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLift4Invertible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var p, orig [4]int32
		for i := range p {
			p[i] = int32(rng.Intn(1<<28) - 1<<27)
			orig[i] = p[i]
		}
		fwdLift4(p[:], 0, 1)
		invLift4(p[:], 0, 1)
		for i := range p {
			if p[i] != orig[i] {
				t.Fatalf("lift4 not invertible: %v", orig)
			}
		}
	}
}

func TestTransformInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		var b, orig [blockSize]int32
		for i := range b {
			b[i] = int32(rng.Intn(1<<26) - 1<<25)
			orig[i] = b[i]
		}
		fwdTransform(b[:])
		invTransform(b[:])
		if b != orig {
			t.Fatal("3D transform not invertible")
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	f := func(i int32) bool { return fromNegabinary(toNegabinary(i)) == i }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Magnitude ordering: larger |i| should have its top set bit no lower.
	if toNegabinary(0) != 0 {
		t.Fatal("negabinary of 0 must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	var seen [blockSize]bool
	for _, p := range perm {
		if p < 0 || p >= blockSize || seen[p] {
			t.Fatalf("perm invalid at %d", p)
		}
		seen[p] = true
	}
	// Low-degree (smooth) coefficients must come first: index 0 is (0,0,0).
	if perm[0] != 0 {
		t.Fatalf("perm[0]=%d want 0", perm[0])
	}
	if perm[blockSize-1] != blockSize-1 {
		t.Fatalf("perm[last]=%d want %d", perm[blockSize-1], blockSize-1)
	}
}

func TestPlanesRoundTripFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var u, ud [blockSize]uint32
		for i := range u {
			u[i] = rng.Uint32()
		}
		w := bitio.NewWriter(64)
		encodePlanes(w, &u, 0)
		if err := decodePlanes(bitio.NewReader(w.Bytes()), &ud, 0); err != nil {
			t.Fatal(err)
		}
		if u != ud {
			t.Fatal("bit-plane coding not lossless at full precision")
		}
	}
}

func smoothGrid(nz, ny, nx int, seed int64) *grid.Grid[float32] {
	g := grid.New[float32](nz, ny, nx)
	rng := rand.New(rand.NewSource(seed))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(z)/5)*math.Cos(float64(y)/7) + 0.3*math.Sin(float64(x)/6) +
					0.01*rng.NormFloat64()
				g.Set(z, y, x, float32(v))
			}
		}
	}
	return g
}

func TestRoundTripErrorBound(t *testing.T) {
	g := smoothGrid(17, 19, 23, 4)
	for _, tol := range []float64{1e-1, 1e-2, 1e-4} {
		enc, err := Compress(g, Options{Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompress[float32](enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if d := math.Abs(float64(g.Data[i] - dec.Data[i])); d > tol {
				t.Fatalf("tol %g violated at %d: %g", tol, i, d)
			}
		}
	}
}

func TestRoundTripFloat64(t *testing.T) {
	g := grid.New[float64](8, 8, 8)
	rng := rand.New(rand.NewSource(5))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64() * 1e6
	}
	const tol = 1.0
	enc, err := Compress(g, Options{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if d := math.Abs(g.Data[i] - dec.Data[i]); d > tol {
			t.Fatalf("bound violated: %g", d)
		}
	}
}

func TestTinyToleranceFallsBackToRaw(t *testing.T) {
	g := grid.New[float64](4, 4, 4)
	rng := rand.New(rand.NewSource(6))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	const tol = 1e-300
	enc, err := Compress(g, Options{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if g.Data[i] != dec.Data[i] {
			t.Fatal("raw fallback should be exact")
		}
	}
}

func TestZeroBlocks(t *testing.T) {
	g := grid.New[float32](8, 8, 8) // all zeros
	enc, err := Compress(g, Options{Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 200 {
		t.Fatalf("zero grid should compress to almost nothing, got %d bytes", len(enc))
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec.Data {
		if v != 0 {
			t.Fatal("zero grid not reconstructed as zeros")
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := smoothGrid(20, 20, 20, 8)
	a, err := Compress(g, Options{Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(g, Options{Tolerance: 1e-3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("parallel stream size differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel stream differs")
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	g := smoothGrid(4, 4, 4, 9)
	if _, err := Compress(g, Options{Tolerance: 0}); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := Compress(g, Options{Tolerance: math.Inf(1)}); err == nil {
		t.Fatal("inf tolerance accepted")
	}
	if _, err := Decompress[float32]([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	enc, _ := Compress(g, Options{Tolerance: 1e-3})
	if _, err := Decompress[float64](enc); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
	for cut := 0; cut < len(enc); cut += 11 {
		_, _ = Decompress[float32](enc[:cut]) // must not panic
	}
}

func TestOddDims(t *testing.T) {
	g := smoothGrid(5, 9, 3, 10)
	enc, err := Compress(g, Options{Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Nz != 5 || dec.Ny != 9 || dec.Nx != 3 {
		t.Fatal("dims wrong")
	}
	for i := range g.Data {
		if d := math.Abs(float64(g.Data[i] - dec.Data[i])); d > 1e-3 {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

// Blockiness: correlated data compressed blockwise loses more quality than
// a global predictor — here we just check CR behaves monotonically.
func TestCRMonotoneInTolerance(t *testing.T) {
	g := smoothGrid(32, 32, 32, 11)
	prev := -1
	for _, tol := range []float64{1e-5, 1e-3, 1e-1} {
		enc, err := Compress(g, Options{Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && len(enc) > prev {
			t.Fatalf("looser tolerance produced bigger stream")
		}
		prev = len(enc)
	}
}
