//go:build !amd64

package quant

// hasRowKernel is false: only amd64 has the row kernel.
const hasRowKernel = false

// quantizeRow2x32 does no points: every row runs quantizeRow.
func quantizeRow2x32(f *Fast, vals, preds []float32, codes []uint16, recon []float32) (n, escapes int) {
	return 0, 0
}
