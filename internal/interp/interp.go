// Package interp provides the interpolation kernels shared by the SZ3
// baseline and the STZ hierarchical predictor.
//
// The cubic kernel is the not-a-knot cubic-spline midpoint formula used by
// SZ3 and by STZ's Eq. 6: for a point halfway between p1 and p2, with outer
// neighbours p0 and p3,
//
//	pred = -1/16·p0 + 9/16·p1 + 9/16·p2 − 1/16·p3.
//
// The multi-dimensional variants (Eq. 4, 5, 7 and 8 of the paper) live in
// the STZ core's row kernels, which evaluate them a row at a time.
//
// Each product is converted to T before it is added: without the explicit
// rounding the Go spec lets a back end fuse x*y + z into one FMA (arm64,
// ppc64le, s390x and riscv64 do), and a prediction must round the same on
// every platform.
package interp

import "stz/internal/grid"

// Linear returns the midpoint linear interpolation of a and b (Eq. 3).
func Linear[T grid.Float](a, b T) T {
	return (a + b) / 2
}

// Cubic returns the not-a-knot cubic midpoint interpolation between p1 and
// p2 using outer neighbours p0, p3 (Eq. 6).
func Cubic[T grid.Float](p0, p1, p2, p3 T) T {
	return T(-(p0+p3)/16) + T((p1+p2)*9/16)
}

// Quad1 predicts a point at position 1/2 given samples at −1/2, −3/2, −5/2
// relative to it (one-sided quadratic extrapolation, used at the trailing
// boundary where only previous points exist; matches SZ3's boundary rule
// pred = (3a + 6b − c)/8 ... we use the simpler SZ3 quadratic form).
func Quad1[T grid.Float](a, b, c T) T {
	return (T(3*c) + T(6*b) - a) / 8
}

// QuadBegin predicts the point between p0 and p1 when only p0, p1, p2 exist
// (leading boundary, no left outer neighbour).
func QuadBegin[T grid.Float](p0, p1, p2 T) T {
	return (T(3*p0) + T(6*p1) - p2) / 8
}

// QuadEnd predicts the point between p1 and p2 when only p0, p1, p2 exist
// (trailing boundary, no right outer neighbour).
func QuadEnd[T grid.Float](p0, p1, p2 T) T {
	return (-p0 + T(6*p1) + T(3*p2)) / 8
}
