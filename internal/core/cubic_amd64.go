package core

import "stz/internal/quant"

// hasCubicKernel records whether this CPU runs the cubic row kernel: quant's
// one probe for its AVX2 row kernels answers it.
var hasCubicKernel = quant.HasAVX2()

// cubicRowAVX2 writes the n ≥ 8 points out[0:n] of the stencil s.
//
//go:noescape
func cubicRowAVX2(s *cubicShape, out *float32, n int)
