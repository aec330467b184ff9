// Package fft implements an iterative radix-2 complex FFT (1D and 3D).
//
// It exists as the substrate for the dataset generators: the synthetic
// stand-ins for Nyx / Magnetic Reconnection / Miranda are Gaussian random
// fields synthesized in the spectral domain, which requires an inverse 3D
// FFT. Only power-of-two lengths are supported, which is all the
// generators need.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Forward computes the in-place forward DFT of x (len must be a power of
// two): X[k] = Σ x[n]·exp(−2πi·nk/N).
func Forward(x []complex128) error { return transform(x, false) }

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return nil
}

// Inverse3D computes the in-place inverse 3D DFT of a row-major
// nz×ny×nx volume (all dims powers of two), including 1/(nz·ny·nx) scaling.
func Inverse3D(data []complex128, nz, ny, nx int) error {
	if len(data) != nz*ny*nx {
		return fmt.Errorf("fft: %d elements do not fill %d×%d×%d", len(data), nz, ny, nx)
	}
	for _, d := range []int{nz, ny, nx} {
		if !IsPow2(d) {
			return fmt.Errorf("fft: dim %d is not a power of two", d)
		}
	}
	// X lines.
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			row := data[(z*ny+y)*nx : (z*ny+y+1)*nx]
			if err := transform(row, true); err != nil {
				return err
			}
		}
	}
	// Y lines.
	buf := make([]complex128, ny)
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				buf[y] = data[(z*ny+y)*nx+x]
			}
			if err := transform(buf, true); err != nil {
				return err
			}
			for y := 0; y < ny; y++ {
				data[(z*ny+y)*nx+x] = buf[y]
			}
		}
	}
	// Z lines.
	buf = make([]complex128, nz)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			for z := 0; z < nz; z++ {
				buf[z] = data[(z*ny+y)*nx+x]
			}
			if err := transform(buf, true); err != nil {
				return err
			}
			for z := 0; z < nz; z++ {
				data[(z*ny+y)*nx+x] = buf[z]
			}
		}
	}
	scale := complex(float64(nz*ny*nx), 0)
	for i := range data {
		data[i] /= scale
	}
	return nil
}

// FreqIndex maps a DFT bin k of an n-point transform to its signed
// frequency in cycles per domain (…,−2,−1,0,1,2,…).
func FreqIndex(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}
