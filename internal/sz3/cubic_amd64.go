package sz3

import "stz/internal/quant"

// hasCubicKernel records whether this CPU runs the stride-2 cubic row
// kernel: quant's one probe for its AVX2 row kernels answers it.
var hasCubicKernel = quant.HasAVX2()

// cubicRow2AVX2 writes the n ≥ 8 cubic predictions out[0:n] from the
// operand rows p0…p3, each read at its floats 0, 2, …, 2n−2.
//
//go:noescape
func cubicRow2AVX2(p0, p1, p2, p3, out *float32, n int)
