package interp

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Linear interpolation must be exact for affine functions.
func TestLinearExactOnAffine(t *testing.T) {
	f := func(x float64) float64 { return 3*x - 7 }
	got := Linear(f(0), f(2))
	if !almostEq(got, f(1), 1e-12) {
		t.Fatalf("got %g want %g", got, f(1))
	}
}

// The not-a-knot cubic midpoint formula must be exact for cubic polynomials.
func TestCubicExactOnCubics(t *testing.T) {
	f := func(x float64) float64 { return 2*x*x*x - 5*x*x + x - 3 }
	// Points at x = -3, -1, 1, 3 predict x = 0.
	got := Cubic(f(-3), f(-1), f(1), f(3))
	if !almostEq(got, f(0), 1e-9) {
		t.Fatalf("got %g want %g", got, f(0))
	}
}

func TestCubicWeightsSumToOne(t *testing.T) {
	// Constant field must be predicted exactly.
	if got := Cubic(5.0, 5.0, 5.0, 5.0); !almostEq(got, 5, 1e-12) {
		t.Fatalf("constant not preserved: %g", got)
	}
}

func TestQuadraticBoundaries(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2*x + 3 }
	// QuadBegin: samples at x=0,2,4 predicting x=1.
	got := QuadBegin(f(0), f(2), f(4))
	if !almostEq(got, f(1), 1e-9) {
		t.Fatalf("QuadBegin got %g want %g", got, f(1))
	}
	// QuadEnd: samples at x=0,2,4 predicting x=3.
	got = QuadEnd(f(0), f(2), f(4))
	if !almostEq(got, f(3), 1e-9) {
		t.Fatalf("QuadEnd got %g want %g", got, f(3))
	}
}

// Interpolating between bounds never escapes the convex hull for linear
// kernels (property test).
func TestLinearConvexHull(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Keep a+b representable; the kernels operate on physical data.
		if math.Abs(a) > math.MaxFloat64/4 || math.Abs(b) > math.MaxFloat64/4 {
			return true
		}
		m := Linear(a, b)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return m >= lo-1e-12*math.Abs(lo) && m <= hi+1e-12*math.Abs(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32Kernels(t *testing.T) {
	got := Cubic[float32](1, 2, 3, 4)
	// -(1+4)/16 + (2+3)*9/16 = -5/16 + 45/16 = 40/16 = 2.5
	if got != 2.5 {
		t.Fatalf("float32 cubic got %g", got)
	}
}
