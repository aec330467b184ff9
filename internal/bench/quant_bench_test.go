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

// benchQuantize times one pass over a 4096-point row, as ns/point.
func benchQuantize[T grid.Float](b *testing.B, pass func(f quant.Fast, vals, preds []T, codes []uint16, recon []T)) {
	const n, eb = 4096, 1e-3
	vals, preds := quantRow[T](n, eb)
	f := quant.New(eb).Fast()
	codes, recon := make([]uint16, n), make([]T, 2*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pass(f, vals, preds, codes, recon)
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

// BenchmarkQuantizeRow is the call-free row quantiser under core's level
// sweep; BenchmarkQuantizePoints is the loop of per-point QuantizeFastT
// calls it replaced, on the same data.
func BenchmarkQuantizeRow(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchQuantize(b, quantizeRow[float32]) })
	b.Run("f64", func(b *testing.B) { benchQuantize(b, quantizeRow[float64]) })
}

func BenchmarkQuantizePoints(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchQuantize(b, quantizePoints[float32]) })
	b.Run("f64", func(b *testing.B) { benchQuantize(b, quantizePoints[float64]) })
}
