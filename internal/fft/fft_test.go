package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("%d should be pow2", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("%d should not be pow2", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 64: 64}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestRejectNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Fatal("length 3 accepted")
	}
}

func TestImpulse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v want 1", i, v)
		}
	}
}

func TestSingleTone(t *testing.T) {
	// x[n] = exp(2πi·3n/16) has all energy in bin 3.
	const n = 16
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 3 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		want := 0.0
		if k == 3 {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %g want %g", k, cmplx.Abs(v), want)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := Inverse3D(x, 1, 1, n); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d: round-trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 128
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= n
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestInverse3DImpulse(t *testing.T) {
	// Inverse of a constant spectrum is an impulse at the origin.
	const nz, ny, nx = 4, 8, 4
	data := make([]complex128, nz*ny*nx)
	for i := range data {
		data[i] = 1
	}
	if err := Inverse3D(data, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		want := complex(0, 0)
		if i == 0 {
			want = 1
		}
		if cmplx.Abs(v-want) > 1e-10 {
			t.Fatalf("voxel %d = %v want %v", i, v, want)
		}
	}
}

func TestInverse3DDims(t *testing.T) {
	if err := Inverse3D(make([]complex128, 10), 2, 2, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := Inverse3D(make([]complex128, 2*3*2), 2, 3, 2); err == nil {
		t.Fatal("non-pow2 dim accepted")
	}
}

func TestFreqIndex(t *testing.T) {
	// n=8: bins 0..4 -> 0..4, bins 5..7 -> -3..-1.
	want := []int{0, 1, 2, 3, 4, -3, -2, -1}
	for k, w := range want {
		if got := FreqIndex(k, 8); got != w {
			t.Fatalf("FreqIndex(%d,8)=%d want %d", k, got, w)
		}
	}
}

func BenchmarkFFT1K(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Forward(x)
	}
}
