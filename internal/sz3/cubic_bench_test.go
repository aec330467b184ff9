package sz3

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPredictLine times predictLine's cubic run on stride-2 float32
// x-lines, the finest level's shape, as ns/point: cubicRow, which takes the
// AVX2 kernel where the CPU has one, against the Go loop cubicRowGo. The
// line lengths are a 64³ chunk's finest lines (32 points; a stzd ingest
// request is two such chunks), a 128³ grid's (64) and a long row (4 096),
// where the per-call cost has gone. Each op runs as many lines, laid one
// after another, as make 16 384 points (a 64³ chunk's x-pass of one
// level), so every series takes microseconds an op.
func BenchmarkPredictLine(b *testing.B) {
	const points = 16384
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{32, 64, 4096} {
		lines := points / n
		data := make([]float32, lines*2*n+6)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		out := make([]float32, points)
		for _, impl := range []struct {
			name string
			row  func(p0, p1, p2, p3, out []float32)
		}{
			{"kernel", func(p0, p1, p2, p3, out []float32) { cubicRow(p0, p1, p2, p3, 2, out) }},
			{"go", func(p0, p1, p2, p3, out []float32) { cubicRowGo(p0, p1, p2, p3, 2, out) }},
		} {
			b.Run(fmt.Sprintf("%s-%d", impl.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for l := 0; l < lines; l++ {
						d := data[l*2*n:]
						impl.row(d, d[2:], d[4:], d[6:], out[l*n:(l+1)*n])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
			})
		}
	}
}
