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
// f32-row16 16-point rows, where the per-call cost shows: sz3 quantises a
// whole line a call, so only short lines (a level-1 base's, at most 8
// points) pay it.
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

// dequantRow is one fine row's worth of (code, prediction) pairs as a
// decode's sweep sees them: codes a few bins either side of the radius, no
// escapes, and a destination whose class points sit 2 apart.
func dequantRow[T grid.Float](n int) (codes []uint16, preds, dst []T) {
	rng := rand.New(rand.NewSource(9))
	codes, preds, dst = make([]uint16, n), make([]T, n), make([]T, 2*n)
	for t := range preds {
		codes[t] = uint16(quant.DefaultRadius + rng.Intn(7) - 3)
		preds[t] = T(rng.NormFloat64())
	}
	return codes, preds, dst
}

// benchDequantize times one pass over 4096 points dequantised in rows of
// row points each, as ns/point.
func benchDequantize[T grid.Float](b *testing.B, row int, pass func(dst []T, codes []uint16, preds []T, bin float64, radius int32)) {
	const n, eb = 4096, 1e-3
	codes, preds, dst := dequantRow[T](n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := 0; t < n; t += row {
			pass(dst[2*t:], codes[t:t+row], preds[t:t+row], 2*eb, quant.DefaultRadius)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
}

func dequantizeRow[T grid.Float](dst []T, codes []uint16, preds []T, bin float64, radius int32) {
	quant.DequantizeRow(dst, 2, codes, preds, bin, radius)
}

// dequantizeLoop is quant's reference loop, the one Go point at a time that
// every row ran before the kernel and every non-amd64 row still runs.
func dequantizeLoop[T grid.Float](dst []T, codes []uint16, preds []T, bin float64, radius int32) {
	for t, code := range codes {
		dst[2*t] = T(float64(preds[t]) + float64(bin*float64(int32(code)-radius)))
	}
}

// BenchmarkDequantizeRow is the decode's row dequantiser, core's sweep and
// sz3's finest level, through quant.DequantizeRow (kernel: the AVX2 kernel
// where the CPU has one) and through the Go reference loop (go), on the
// same rows: 4096-point f32 and f64 rows, a 128³ core sweep's 64-point
// rows and 16-point rows, where the per-call cost shows (sz3 dequantises a
// whole line's escape-free run a call, so only short lines pay it).
func BenchmarkDequantizeRow(b *testing.B) {
	for _, c := range []struct {
		name string
		f32  bool
		row  int
	}{{"f32", true, 4096}, {"f64", false, 4096}, {"f32-row64", true, 64}, {"f32-row16", true, 16}} {
		b.Run(c.name+"/kernel", func(b *testing.B) {
			if c.f32 {
				benchDequantize(b, c.row, dequantizeRow[float32])
			} else {
				benchDequantize(b, c.row, dequantizeRow[float64])
			}
		})
		b.Run(c.name+"/go", func(b *testing.B) {
			if c.f32 {
				benchDequantize(b, c.row, dequantizeLoop[float32])
			} else {
				benchDequantize(b, c.row, dequantizeLoop[float64])
			}
		})
	}
}
