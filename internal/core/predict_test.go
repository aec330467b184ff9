package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stz/internal/grid"
	"stz/internal/quant"
	"stz/internal/rawio"
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

// TestDequantRowMatchesPoint holds outlier placement and the sweep's
// dequantise row to one quant.DequantizeT per point, with escapes taking the
// class's outliers in class-index order, in both element types, on rows of
// 1–70 points that start mid-class: escapes at the first point, the last, in
// a run, at random and nowhere. Placement, one pass over the whole class
// from code 0, fills every escape of the row; with the class's last outlier
// missing it must fail. With no escape values
// at all (nil esc) the row must stop at its first escape with the error,
// never panic, and write nothing from there on: every slot between the row's
// points, the rest of the row and a canary after its last slot keep their
// sentinel.
func TestDequantRowMatchesPoint(t *testing.T) {
	t.Run("f32", func(t *testing.T) { checkDequantRow[float32](t) })
	t.Run("f64", func(t *testing.T) { checkDequantRow[float64](t) })
}

func checkDequantRow[T grid.Float](t *testing.T) {
	const cs = 16 // a scale for the random prefix and suffix lengths
	q := quant.Quantizer{EB: 1e-3, Radius: 512}
	rng := rand.New(rand.NewSource(11))
	bits := func(v T) uint64 { return math.Float64bits(float64(v)) }
	sentinel := T(-7777)
	patterns := []struct {
		name string
		esc  func(n, t int) bool
	}{
		{"first", func(n, t int) bool { return t == 0 }},
		{"last", func(n, t int) bool { return t == n-1 }},
		{"run", func(n, t int) bool { return t >= n/3 && t < n/3+max(2, n/3) }},
		{"random", func(n, t int) bool { return rng.Intn(4) == 0 }},
		{"none", func(n, t int) bool { return false }},
	}
	code := func() uint16 { return uint16(1 + rng.Intn(2*int(q.Radius)-1)) }
	for n := 1; n <= 70; n++ {
		for _, pat := range patterns {
			for _, short := range []bool{false, true} {
				what := fmt.Sprintf("n %d, escapes %s, short %v", n, pat.name, short)
				// The class: a prefix with escapes, the row, and — unless
				// the last outlier goes missing, which must be the row's —
				// a suffix with escapes.
				pre, suf := rng.Intn(3*cs), 0
				if !short {
					suf = rng.Intn(cs)
				}
				codes := make([]uint16, pre+n+suf)
				for i := range codes {
					inRow := i >= pre && i < pre+n
					if inRow && !pat.esc(n, i-pre) || !inRow && rng.Intn(4) != 0 {
						codes[i] = code()
					}
				}
				var outliers []T
				escBefore := make([]int, len(codes)) // escapes before class index i
				for i, c := range codes {
					escBefore[i] = len(outliers)
					if c == 0 {
						outliers = append(outliers, T(rng.NormFloat64()*1e6))
					}
				}
				preds := make([]T, n)
				want := make([]T, n)
				first := n // the row's first escape
				for t := range preds {
					preds[t] = T(rng.NormFloat64())
					if c := codes[pre+t]; c != 0 {
						want[t] = quant.DequantizeT[T](q, c, float64(preds[t]))
					} else {
						want[t] = outliers[escBefore[pre+t]]
						first = min(first, t)
					}
				}
				if short {
					if first == n {
						continue // no escape in the row: nothing to run out of
					}
					outliers = outliers[:len(outliers)-1]
				}
				vals := make([]byte, len(outliers)*rawio.ElemSize[T]())
				rawio.PutValues(vals, outliers)
				dc := decodedClass[T]{codes: codes, esc: make([]T, len(codes))}
				err := dc.placeOutliers(vals)
				if short != (err != nil) || short && !errors.Is(err, errOutliersExhausted) {
					t.Fatalf("%s: placement err %v", what, err)
				}
				dst := make([]T, 2*n) // dst[2n−1] is the canary
				check := func(how string, esc []T, stop int) {
					for i := range dst {
						dst[i] = sentinel
					}
					err := dequantRow(dst, codes[pre:pre+n], preds, 2*q.EB, q.Radius, esc, pre)
					if (stop < n) != (err != nil) || err != nil && !errors.Is(err, errOutliersExhausted) {
						t.Fatalf("%s, %s: err %v", what, how, err)
					}
					for i, v := range dst {
						if i%2 == 0 && i/2 < stop {
							if bits(v) != bits(want[i/2]) {
								t.Fatalf("%s, %s: point %d is %v, want %v", what, how, i/2, v, want[i/2])
							}
						} else if bits(v) != bits(sentinel) {
							t.Fatalf("%s, %s: slot %d of %d written (%v)", what, how, i, len(dst), v)
						}
					}
				}
				if !short {
					check("placed", dc.esc, n)
				}
				check("nil esc", nil, first)
			}
		}
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
// predictPoint on every point of every class, for all three predictors, in
// both element types, over every mix of small dims — unit dims (2D and 1D
// grids) and lattices too short for any interior included — and every
// sub-range [lo, hi) of every row, so spans that start or end inside an edge
// zone are covered. The small dims leave every cubic x-span at ≤ 2 points,
// so a second leg runs rows long enough for each kernel's steady-state loop
// (fx 16, 17 and 33 over fz, fy 8 and 9) on whole rows and the spans
// [1, bx−1) and [2, bx−3).
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
	every := func(bx int) (spans [][2]int) {
		for lo := 0; lo < bx; lo++ {
			for hi := lo + 1; hi <= bx; hi++ {
				spans = append(spans, [2]int{lo, hi})
			}
		}
		return spans
	}
	long := func(bx int) [][2]int {
		spans := [][2]int{{0, bx}}
		for _, s := range [][2]int{{1, bx - 1}, {2, bx - 3}} {
			if s[0] < s[1] {
				spans = append(spans, s)
			}
		}
		return spans
	}
	small := []int{1, 2, 3, 4, 5, 8, 9}
	for _, leg := range []struct {
		name          string
		fzs, fys, fxs []int
		spans         func(bx int) [][2]int
	}{
		{"small", small, small, small, every},
		{"long", []int{8, 9}, []int{8, 9}, []int{16, 17, 33}, long},
	} {
		t.Run(leg.name+"/f64", func(t *testing.T) {
			checkRowGen[float64](t, leg.fzs, leg.fys, leg.fxs, leg.spans, 1e-12)
		})
		t.Run(leg.name+"/f32", func(t *testing.T) {
			checkRowGen[float32](t, leg.fzs, leg.fys, leg.fxs, leg.spans, 1e-5)
		})
	}
}

// checkRowGen is TestRowGenMatchesPredictPoint over the fine dims fzs × fys
// × fxs in element type T, on the row spans spans(bx) of a class bx points
// wide; tol is the rounding the shared-column kernels may differ by.
func checkRowGen[T grid.Float](t *testing.T, fzs, fys, fxs []int, spans func(bx int) [][2]int, tol float64) {
	bits := func(v T) uint64 { return math.Float64bits(float64(v)) } // exact for float32 too
	rng := rand.New(rand.NewSource(5))
	for _, fz := range fzs {
		for _, fy := range fys {
			for _, fx := range fxs {
				cz, cy, cx := grid.SubDim(fz, 0, 2), grid.SubDim(fy, 0, 2), grid.SubDim(fx, 0, 2)
				ints, reals, negz := grid.New[T](cz, cy, cx), grid.New[T](cz, cy, cx), grid.New[T](cz, cy, cx)
				for n := range ints.Data {
					ints.Data[n] = T(rng.Intn(2001) - 1000)
					reals.Data[n] = T(rng.NormFloat64())
					negz.Data[n] = T(math.Copysign(0, -1))
				}
				for _, kind := range []Predictor{PredDirect, PredLinear, PredCubic} {
					for _, off := range predictedClasses() {
						bz, by, bx := classDims(off, fz, fy, fx)
						nOff := off.Z + off.Y + off.X
						for name, c := range map[string]*grid.Grid[T]{"ints": ints, "reals": reals, "negz": negz} {
							gen := newRowGen(c, grid.Offset3{}, [3]int{cz, cy, cx}, off, kind)
							out, wout := make([]T, bx), make([]T, bx)
							for k := 0; k < bz; k++ {
								for j := 0; j < by; j++ {
									for _, s := range spans(bx) {
										lo, hi := s[0], s[1]
										gen.row(k, j, lo, hi, out)
										// The stencil reaches −1/+2 along offset axes only.
										w := grid.Box{Z0: max(k-off.Z, 0), Y0: max(j-off.Y, 0), X0: max(lo-off.X, 0),
											Z1: min(k+1+2*off.Z, cz), Y1: min(j+1+2*off.Y, cy), X1: min(hi+2*off.X, cx)}
										wgen := newRowGen(c.ExtractBox(w), grid.Offset3{Z: w.Z0, Y: w.Y0, X: w.X0}, [3]int{cz, cy, cx}, off, kind)
										wgen.row(k, j, lo, hi, wout)
										for i := lo; i < hi; i++ {
											got, want := out[i-lo], predictPoint(c, off, k, j, i, kind)
											if bits(wout[i-lo]) != bits(got) {
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
											if exact && bits(got) != bits(want) ||
												!exact && math.Abs(float64(got-want)) > tol {
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

// TestCubicRowKernel holds cubicRow, which sends float32 spans eight points
// at a time through the AVX2 kernel where the CPU has one, to the Go loop
// cubicRowGo bit for bit: every interior shape (one, two and three offset
// axes, x among them or not), every span length from 0 to 40, with the
// stencil touching neither, the first, the last or both ends of the window,
// on data strewn with −0, subnormals and NaN. TestRowGenMatchesPredictPoint
// compares with a tolerance and cannot see a rounding difference.
func TestCubicRowKernel(t *testing.T) {
	const sy, sz = 45, 45 * 7 // strides of a window 45 wide and 7 high
	shapes := []struct {
		name string
		ds   []int
		xOff bool
	}{
		{"x", []int{1}, true},
		{"y", []int{sy}, false},
		{"z", []int{sz}, false},
		{"yx", []int{sy, 1}, true},
		{"zx", []int{sz, 1}, true},
		{"zy", []int{sz, sy}, false},
		{"zyx", []int{sz, sy, 1}, true},
	}
	rng := rand.New(rand.NewSource(5))
	special := []float32{float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-2 * math.SmallestNonzeroFloat32, 1e-40, float32(math.NaN())}
	for _, sh := range shapes {
		// The stencil of the point at b reads [b+lo, b+hi]; the 1 and 2
		// points along x are the outer x corners of an x-offset shape.
		lo, hi := 0, 0
		for _, d := range sh.ds {
			lo, hi = lo-d, hi+2*d
		}
		for n := 0; n <= 40; n++ {
			for _, pad := range [][2]int{{0, 0}, {0, 3}, {5, 0}, {2, 9}} {
				data := make([]float32, pad[0]+(hi-lo)+n+pad[1])
				for i := range data {
					data[i] = float32(rng.NormFloat64())
					if rng.Intn(5) == 0 {
						data[i] = special[rng.Intn(len(special))]
					}
				}
				g := rowGen[float32]{data: data}
				b0 := pad[0] - lo
				got, want := make([]float32, n+1), make([]float32, n+1)
				got[n], want[n] = -7.25, -7.25
				if n > 0 {
					g.cubicRow(b0, sh.ds, sh.xOff, got[:n])
					g.cubicRowGo(b0, sh.ds, sh.xOff, want[:n])
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s, %d points, pads %v: point %d bits %#x, Go loop %#x",
							sh.name, n, pad, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
