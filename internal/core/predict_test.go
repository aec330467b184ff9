package core

import (
	"math"
	"math/rand"
	"testing"

	"stz/internal/grid"
)

// predictPoint is the per-point statement of the prediction rules — the
// reference rowGen is tested against, point by point. It predicts the value
// of a parity-class point from the reconstructed coarse grid (the class-0
// lattice of the same fine grid).
//
// The class point at class coordinates (k, j, i) with parity offset off
// sits at fine coordinates (2k+off.Z, 2j+off.Y, 2i+off.X). Along each axis
// with offset 1 it lies halfway between coarse lattice indices (k, k+1);
// along offset-0 axes it coincides with coarse index k.
//
// Kernel selection follows the paper's ladder with boundary fallbacks:
//
//	cubic (Eqs. 6–8)  — needs inner corners {0,+1} and outer corners
//	                    {−1,+2} along every offset axis;
//	linear (Eqs. 3–5) — needs inner corners only;
//	partial           — mean of the in-range inner corners;
//	direct (Eq. 1)    — the base corner (always in range).
func predictPoint[T grid.Float](c *grid.Grid[T], off grid.Offset3, k, j, i int, kind Predictor) T {
	if kind == PredDirect {
		return c.Data[(k*c.Ny+j)*c.Nx+i]
	}
	// Offset mask per axis.
	dz, dy, dx := off.Z, off.Y, off.X
	nOff := dz + dy + dx // number of offset axes, 1..3

	// Upper inner corner availability.
	zOK := dz == 0 || k+1 < c.Nz
	yOK := dy == 0 || j+1 < c.Ny
	xOK := dx == 0 || i+1 < c.Nx

	base := (k*c.Ny+j)*c.Nx + i
	rowZ := c.Ny * c.Nx
	rowY := c.Nx

	if zOK && yOK && xOK {
		// All inner corners exist. Try cubic, else linear.
		if kind == PredCubic {
			zC := dz == 0 || (k-1 >= 0 && k+2 < c.Nz)
			yC := dy == 0 || (j-1 >= 0 && j+2 < c.Ny)
			xC := dx == 0 || (i-1 >= 0 && i+2 < c.Nx)
			if zC && yC && xC {
				var sumIn, sumOut T
				for bz := 0; bz <= dz; bz++ {
					for by := 0; by <= dy; by++ {
						for bx := 0; bx <= dx; bx++ {
							sumIn += c.Data[base+bz*rowZ+by*rowY+bx]
						}
					}
				}
				// Outer corners: −1/+2 along offset axes only.
				zSteps, zn := outerSteps(dz)
				ySteps, yn := outerSteps(dy)
				xSteps, xn := outerSteps(dx)
				for a := 0; a < zn; a++ {
					for b := 0; b < yn; b++ {
						for e := 0; e < xn; e++ {
							sumOut += c.Data[base+zSteps[a]*rowZ+ySteps[b]*rowY+xSteps[e]]
						}
					}
				}
				// Coefficients 9/2^(n+3) and −1/2^(n+3), n = #offset axes.
				den := T(int64(1) << uint(nOff+3))
				return sumIn*9/den - sumOut/den
			}
		}
		// Linear: mean of the 2^n inner corners (Eqs. 3–5).
		var sum T
		for bz := 0; bz <= dz; bz++ {
			for by := 0; by <= dy; by++ {
				for bx := 0; bx <= dx; bx++ {
					sum += c.Data[base+bz*rowZ+by*rowY+bx]
				}
			}
		}
		return sum / T(int64(1)<<uint(nOff))
	}

	// Partial boundary: mean of the in-range inner corners.
	var sum T
	var cnt int
	for bz := 0; bz <= dz; bz++ {
		if bz == 1 && !zOK {
			continue
		}
		for by := 0; by <= dy; by++ {
			if by == 1 && !yOK {
				continue
			}
			for bx := 0; bx <= dx; bx++ {
				if bx == 1 && !xOK {
					continue
				}
				sum += c.Data[base+bz*rowZ+by*rowY+bx]
				cnt++
			}
		}
	}
	return sum / T(cnt)
}

// outerSteps returns the outer-corner index offsets along one axis:
// {0} for a non-offset axis, {−1, +2} for an offset axis.
func outerSteps(d int) ([2]int, int) {
	if d == 0 {
		return [2]int{0, 0}, 1
	}
	return [2]int{-1, 2}, 2
}

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

// kernelAt names the kernel the prediction ladder selects at a class point:
// "direct", "cubic" or "linear" (the stream's own kernel with its whole
// stencil in range), or "edge" (every boundary fallback).
func kernelAt(kind Predictor, off grid.Offset3, k, j, i, cz, cy, cx int) string {
	if kind == PredDirect {
		return "direct"
	}
	inner, outer := true, true
	for _, a := range [][3]int{{off.Z, k, cz}, {off.Y, j, cy}, {off.X, i, cx}} {
		if a[0] == 1 {
			inner = inner && a[1]+1 < a[2]
			outer = outer && a[1] >= 1 && a[1]+2 < a[2]
		}
	}
	switch {
	case !inner:
		return "edge"
	case kind == PredLinear:
		return "linear"
	case outer:
		return "cubic"
	}
	return "edge"
}

// TestRowGenMatchesPredictPoint compares the row generator with
// predictPoint on every point of every class, for all three predictors,
// over every mix of small dims — unit dims (2D and 1D grids) and lattices
// too short for any interior included — and every sub-range [lo, hi) of
// every row, so spans that start or end inside an edge zone are covered.
//
// Three coarse grids: small integers (every sum is exact, so every kernel
// must agree bit for bit whatever its summation order), reals (bit for bit
// wherever the generator promises predictPoint's order — every edge span,
// direct, and the one- and three-axis kernels; the two-axis linear and
// multi-axis cubic kernels share column sums and agree to rounding), and
// all −0 (predictPoint's zero accumulator turns −0 into +0; the edge spans
// must too). Every span is also predicted from a window of the coarse grid
// cropped to the span's stencil reach, the way a box decode stores a level,
// and must match the whole grid's prediction bit for bit.
func TestRowGenMatchesPredictPoint(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 8, 9}
	rng := rand.New(rand.NewSource(5))
	for _, fz := range dims {
		for _, fy := range dims {
			for _, fx := range dims {
				cz, cy, cx := grid.SubDim(fz, 0, 2), grid.SubDim(fy, 0, 2), grid.SubDim(fx, 0, 2)
				ints, reals, negz := grid.New[float64](cz, cy, cx), grid.New[float64](cz, cy, cx), grid.New[float64](cz, cy, cx)
				for n := range ints.Data {
					ints.Data[n] = float64(rng.Intn(2001) - 1000)
					reals.Data[n] = rng.NormFloat64()
					negz.Data[n] = math.Copysign(0, -1)
				}
				for _, kind := range []Predictor{PredDirect, PredLinear, PredCubic} {
					for _, off := range predictedClasses() {
						bz, by, bx := classDims(off, fz, fy, fx)
						nOff := off.Z + off.Y + off.X
						for name, c := range map[string]*grid.Grid[float64]{"ints": ints, "reals": reals, "negz": negz} {
							gen := newRowGen(c, grid.Offset3{}, [3]int{cz, cy, cx}, off, kind)
							out, wout := make([]float64, bx), make([]float64, bx)
							for k := 0; k < bz; k++ {
								for j := 0; j < by; j++ {
									for lo := 0; lo < bx; lo++ {
										for hi := lo + 1; hi <= bx; hi++ {
											gen.row(k, j, lo, hi, out)
											// The stencil reaches −1/+2 along offset axes only.
											w := grid.Box{Z0: max(k-off.Z, 0), Y0: max(j-off.Y, 0), X0: max(lo-off.X, 0),
												Z1: min(k+1+2*off.Z, cz), Y1: min(j+1+2*off.Y, cy), X1: min(hi+2*off.X, cx)}
											wgen := newRowGen(c.ExtractBox(w), grid.Offset3{Z: w.Z0, Y: w.Y0, X: w.X0}, [3]int{cz, cy, cx}, off, kind)
											wgen.row(k, j, lo, hi, wout)
											for i := lo; i < hi; i++ {
												got, want := out[i-lo], predictPoint(c, off, k, j, i, kind)
												if math.Float64bits(wout[i-lo]) != math.Float64bits(got) {
													t.Fatalf("dims %dx%dx%d %v class %+v %s point (%d,%d,%d) of [%d,%d): window %+v predicts %v, whole grid %v",
														fz, fy, fx, kind, off, name, k, j, i, lo, hi, w, wout[i-lo], got)
												}
												kern := kernelAt(kind, off, k, j, i, cz, cy, cx)
												exact := true
												switch name {
												case "reals":
													exact = kern == "edge" || kern == "direct" || nOff == 1 || (kern == "linear" && nOff == 3)
												case "negz":
													exact = kern != "linear"
												}
												if exact && math.Float64bits(got) != math.Float64bits(want) ||
													!exact && math.Abs(got-want) > 1e-12 {
													t.Fatalf("dims %dx%dx%d %v class %+v %s (%s kernel) point (%d,%d,%d) of [%d,%d): row %v, predictPoint %v",
														fz, fy, fx, kind, off, name, kern, k, j, i, lo, hi, got, want)
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
