package bench

import (
	"math/rand"
	"testing"

	"stz/internal/grid"
	"stz/internal/quant"
)

// quantRow is one fine row's worth of (value, prediction) pairs as the level
// sweep sees them: class points 2 apart, residuals a few bins wide.
func quantRow[T grid.Float](n int, eb float64) (vals, preds []T) {
	rng := rand.New(rand.NewSource(9))
	vals, preds = make([]T, 2*n), make([]T, n)
	for t := range preds {
		v := rng.NormFloat64()
		vals[2*t], vals[2*t+1] = T(v), T(v)
		preds[t] = T(v + rng.NormFloat64()*3*eb)
	}
	return vals, preds
}

// benchQuantize times one pass over 4096 points quantised in rows of row
// points each, as ns/point. Each row's value and recon slices run on to the
// end of the buffer, as a sweep's do.
func benchQuantize[T grid.Float](b *testing.B, row int, pass func(f quant.Fast, vals, preds []T, codes []uint16, recon []T)) {
	const n, eb = 4096, 1e-3
	vals, preds := quantRow[T](n, eb)
	f := quant.New(eb).Fast()
	codes, recon := make([]uint16, n), make([]T, 2*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := 0; t < n; t += row {
			pass(f, vals[2*t:], preds[t:t+row], codes[t:t+row], recon[2*t:])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
}

func quantizeRow[T grid.Float](f quant.Fast, vals, preds []T, codes []uint16, recon []T) {
	quant.QuantizeRow(f, vals, 2, preds, codes, recon)
}

func quantizePoints[T grid.Float](f quant.Fast, vals, preds []T, codes []uint16, recon []T) {
	for t, p := range preds {
		codes[t], recon[2*t], _ = quant.QuantizeFastT(f, vals[2*t], float64(p))
	}
}

// BenchmarkQuantizeRow is the row quantiser under core's level sweep and
// sz3's finest level; BenchmarkQuantizePoints is the loop of per-point
// QuantizeFastT calls it replaced, on the same data. The f32 and f64 series
// quantise 4096-point rows; f32-row64 a 128³ core sweep's 64-point rows and
// f32-row16 sz3's 16-point brick rows, where the per-call cost shows.
func BenchmarkQuantizeRow(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchQuantize(b, 4096, quantizeRow[float32]) })
	b.Run("f64", func(b *testing.B) { benchQuantize(b, 4096, quantizeRow[float64]) })
	b.Run("f32-row64", func(b *testing.B) { benchQuantize(b, 64, quantizeRow[float32]) })
	b.Run("f32-row16", func(b *testing.B) { benchQuantize(b, 16, quantizeRow[float32]) })
}

func BenchmarkQuantizePoints(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchQuantize(b, 4096, quantizePoints[float32]) })
	b.Run("f64", func(b *testing.B) { benchQuantize(b, 4096, quantizePoints[float64]) })
}
