//go:build !amd64

package core

// hasCubicKernel is false: only amd64 has the cubic row kernel.
const hasCubicKernel = false

// cubicRowAVX2 is never called: every span runs cubicRowGo.
func cubicRowAVX2(s *cubicShape, out *float32, n int) {}
