package core

import (
	"math"
	"testing"

	"stz/internal/grid"
)

func TestPredictPointDirect(t *testing.T) {
	c := grid.New[float64](2, 2, 2)
	for i := range c.Data {
		c.Data[i] = float64(i)
	}
	got := predictPoint(c, grid.Offset3{Z: 1, Y: 1, X: 1}, 1, 0, 1, PredDirect)
	if got != c.At(1, 0, 1) {
		t.Fatalf("direct pred=%g want %g", got, c.At(1, 0, 1))
	}
}

func TestPredictPointLinearAxes(t *testing.T) {
	// Coarse lattice samples f(z,y,x) = 2z + 3y + 5x at spacing 2 in fine
	// coords -> coarse value at (k,j,i) is f(2k,2j,2i). Linear prediction of
	// a fine midpoint must be exact for affine f.
	c := grid.New[float64](4, 4, 4)
	f := func(z, y, x float64) float64 { return 2*z + 3*y + 5*x + 1 }
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				c.Set(k, j, i, f(float64(2*k), float64(2*j), float64(2*i)))
			}
		}
	}
	cases := []struct {
		off     grid.Offset3
		k, j, i int
		fz, fy  float64
		fx      float64
	}{
		{grid.Offset3{X: 1}, 1, 1, 1, 2, 2, 3},
		{grid.Offset3{Y: 1}, 1, 1, 1, 2, 3, 2},
		{grid.Offset3{Z: 1}, 1, 1, 1, 3, 2, 2},
		{grid.Offset3{Y: 1, X: 1}, 1, 1, 1, 2, 3, 3},
		{grid.Offset3{Z: 1, Y: 1, X: 1}, 1, 1, 1, 3, 3, 3},
	}
	for _, cs := range cases {
		got := predictPoint(c, cs.off, cs.k, cs.j, cs.i, PredLinear)
		want := f(cs.fz, cs.fy, cs.fx)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("off %+v: got %g want %g", cs.off, got, want)
		}
	}
}

func TestPredictPointCubicExactOnCubicPolynomial(t *testing.T) {
	// 1-axis cubic prediction is exact for cubic polynomials along the axis.
	c := grid.New[float64](1, 1, 8)
	poly := func(x float64) float64 { return 0.5*x*x*x - x*x + 3*x - 2 }
	for i := 0; i < 8; i++ {
		c.Set(0, 0, i, poly(float64(2*i)))
	}
	// Class point (0,0,2) with off X=1 sits at fine x=5, between coarse 2,3
	// with outers 1,4 — all in range.
	got := predictPoint(c, grid.Offset3{X: 1}, 0, 0, 2, PredCubic)
	want := poly(5)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("cubic got %g want %g", got, want)
	}
}

func TestPredictPointBoundaryFallbacks(t *testing.T) {
	c := grid.New[float64](2, 2, 2)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	copy(c.Data, vals)
	// Last class point along x (i=1, cx=2): i+1 out of range -> direct.
	got := predictPoint(c, grid.Offset3{X: 1}, 0, 0, 1, PredCubic)
	if got != c.At(0, 0, 1) {
		t.Fatalf("boundary fallback got %g want %g", got, c.At(0, 0, 1))
	}
	// Interior-ish point with no outer neighbours -> linear fallback.
	got = predictPoint(c, grid.Offset3{X: 1}, 0, 0, 0, PredCubic)
	want := (c.At(0, 0, 0) + c.At(0, 0, 1)) / 2
	if got != want {
		t.Fatalf("linear fallback got %g want %g", got, want)
	}
	// 3-axis point at corner (all +1 out of range) -> direct.
	got = predictPoint(c, grid.Offset3{Z: 1, Y: 1, X: 1}, 1, 1, 1, PredCubic)
	if got != c.At(1, 1, 1) {
		t.Fatalf("corner fallback got %g want %g", got, c.At(1, 1, 1))
	}
	// 2-axis point with one axis out of range -> mean of the two in-range
	// inner corners.
	got = predictPoint(c, grid.Offset3{Y: 1, X: 1}, 0, 1, 0, PredCubic)
	want = (c.At(0, 1, 0) + c.At(0, 1, 1)) / 2
	if got != want {
		t.Fatalf("partial fallback got %g want %g", got, want)
	}
}

func TestClassDims(t *testing.T) {
	bz, by, bx := classDims(grid.Offset3{Z: 1}, 9, 8, 7)
	if bz != 4 || by != 4 || bx != 4 {
		t.Fatalf("dims %d %d %d", bz, by, bx)
	}
	bz, _, _ = classDims(grid.Offset3{Z: 1}, 1, 8, 7)
	if bz != 0 {
		t.Fatalf("2D class should be empty, bz=%d", bz)
	}
}

func TestAxisNeed(t *testing.T) {
	// Even-parity axis, no reach: fine [4,9) with o=0 covers fine {4,6,8}
	// -> coarse {2,3,4}.
	k0, k1, ok := axisNeed(4, 9, 0, 10)
	if !ok || k0 != 2 || k1 != 5 {
		t.Fatalf("o=0: [%d,%d) ok=%v", k0, k1, ok)
	}
	// Odd-parity axis with cubic reach: fine [4,9) odd -> {5,7} -> k {2,3}
	// -> reach [1, 5].
	k0, k1, ok = axisNeed(4, 9, 1, 10)
	if !ok || k0 != 1 || k1 != 6 {
		t.Fatalf("o=1: [%d,%d) ok=%v", k0, k1, ok)
	}
	// Empty: fine [4,5) has no odd points.
	if _, _, ok = axisNeed(4, 5, 1, 10); ok {
		t.Fatal("expected empty need")
	}
	// Clipping at the coarse extent.
	k0, k1, ok = axisNeed(0, 20, 1, 5)
	if !ok || k0 != 0 || k1 != 5 {
		t.Fatalf("clip: [%d,%d) ok=%v", k0, k1, ok)
	}
}

func TestNeededCoarseCoversSliceThinly(t *testing.T) {
	// An even-z slice must need exactly one coarse z plane.
	b := grid.Box{Z0: 8, Z1: 9, Y0: 0, Y1: 16, X0: 0, X1: 16}
	u := neededCoarse(b, 8, 8, 8)
	if u.Z0 != 4 || u.Z1 != 5 {
		t.Fatalf("even slice coarse z = [%d,%d), want [4,5)", u.Z0, u.Z1)
	}
	// An odd-z slice needs the cubic reach.
	b = grid.Box{Z0: 9, Z1: 10, Y0: 0, Y1: 16, X0: 0, X1: 16}
	u = neededCoarse(b, 8, 8, 8)
	if u.Z0 != 3 || u.Z1 != 7 {
		t.Fatalf("odd slice coarse z = [%d,%d), want [3,7)", u.Z0, u.Z1)
	}
}

func TestOutlierCursor(t *testing.T) {
	codes := []uint16{5, 0, 7, 0, 0, 9, 0}
	oc := outlierCursor{codes: codes}
	// Escapes at ci = 1, 3, 4, 6 -> outlier indices 0, 1, 2, 3.
	if got := oc.take(1); got != 0 {
		t.Fatalf("take(1)=%d", got)
	}
	if got := oc.take(3); got != 1 {
		t.Fatalf("take(3)=%d", got)
	}
	if got := oc.take(4); got != 2 {
		t.Fatalf("take(4)=%d", got)
	}
	if got := oc.take(6); got != 3 {
		t.Fatalf("take(6)=%d", got)
	}
	// Skipping ahead: fresh cursor jumping straight to ci=6 must count the
	// three zeros before it.
	oc = outlierCursor{codes: codes}
	if got := oc.take(6); got != 3 {
		t.Fatalf("skip take(6)=%d", got)
	}
}
