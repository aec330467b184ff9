//go:build !amd64

package quant

// hasRowKernel is false: only amd64 has the row kernels.
const hasRowKernel = false

// quantizeRow2x32 does no points: every row runs quantizeRow.
func quantizeRow2x32(f *Fast, vals, preds []float32, codes []uint16, recon []float32) (n, escapes int) {
	return 0, 0
}

// dequantizeRow2x32 does no points: every row runs dequantizeRow.
func dequantizeRow2x32(dst []float32, codes []uint16, preds []float32, bin float64, radius int32) int {
	return 0
}
