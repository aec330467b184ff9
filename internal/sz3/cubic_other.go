//go:build !amd64

package sz3

// hasCubicKernel is false: only amd64 has the stride-2 cubic row kernel.
const hasCubicKernel = false

// cubicRow2AVX2 is never called: every run goes through cubicRowGo.
func cubicRow2AVX2(p0, p1, p2, p3, out *float32, n int) {}
