// Package hdr implements HDR-style log-linear latency histograms: fixed
// bucket layout, constant-time recording, bounded relative error, and
// lossless merging. It is the recording half of the open-loop load
// generator (internal/bench's RunLoad, which cmd/stzload drives): each
// load worker owns one Histogram and records into it without
// synchronization — recording is a single array increment, lock-free
// because the histogram is single-writer — and the workers' histograms
// are merged after the run, which loses nothing because bucket counts are
// additive.
//
// The bucket layout is the hdrhistogram/gc_latency scheme: values below
// 2*subCount fall into exact unit-width buckets, and each further
// power-of-two octave is split into subCount linear sub-buckets, so the
// relative quantization error is bounded by 1/subCount (~1.6%) across
// the whole int64 range. Quantiles are therefore never more than one
// bucket width away from the exact order statistic, while the histogram
// itself stays a flat 30 KB array regardless of how many values it has
// absorbed.
package hdr

import (
	"math"
	"math/bits"
)

const (
	// subBits sets the resolution: 1<<subBits linear sub-buckets per
	// power-of-two octave, bounding relative error by 1/2^subBits.
	subBits  = 6
	subCount = 1 << subBits

	// maxShift is the scaling of the last octave needed to cover int64.
	maxShift = 63 - (subBits + 1)

	// nBuckets covers [0, 2^63): the exact linear region [0, 2*subCount)
	// plus subCount sub-buckets for each of the maxShift octaves above it.
	nBuckets = (maxShift + 2) * subCount
)

// index maps a non-negative value to its bucket. Negative values clamp
// to bucket 0 (latencies cannot be negative; clock skew should not
// corrupt the layout).
func index(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	shift := bits.Len64(u) - (subBits + 1)
	if shift < 1 {
		return int(u)
	}
	return shift*subCount + int(u>>shift)
}

// lowerBound is the smallest value mapping to bucket i — the inverse of
// index up to quantization.
func lowerBound(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	return int64(i-shift*subCount) << shift
}

// bucketWidth is the value span of bucket i: 1 in the exact linear
// region, 2^octave above it.
func bucketWidth(i int) int64 {
	if i < 2*subCount {
		return 1
	}
	return 1 << (i/subCount - 1)
}

// Histogram is one log-linear histogram. It is deliberately not
// goroutine-safe: a histogram has exactly one writer (its worker), which
// makes Record a plain increment. Cross-worker aggregation goes through
// Merge after the writers are done (or on quiescent copies).
type Histogram struct {
	counts [nBuckets]uint64
	total  uint64
	min    int64
	max    int64
	sum    float64 // float64: immune to overflow across long soaks
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Record adds one observation.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of v.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[index(v)] += n
	h.total += n
	if v < 0 {
		v = 0
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.sum += float64(v) * float64(n)
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Min reports the exact minimum recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the exact maximum recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean reports the arithmetic mean of the recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// recorded values: the upper bound of the bucket holding the exact order
// statistic, clamped to the recorded extremes. The estimate is within
// one bucket width of the exact sorted-slice value; Quantile(0) and
// Quantile(1) are the exact Min and Max. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	// rank is the 1-based position of the order statistic: ceil(q*total),
	// clamped into [1, total].
	rank := uint64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			est := lowerBound(i) + bucketWidth(i) - 1
			if est > h.max {
				est = h.max
			}
			if est < h.min {
				est = h.min
			}
			return est
		}
	}
	return h.max
}

// Merge folds o into h. Bucket counts are additive, so merging loses
// nothing: the merged histogram is identical to one that recorded both
// input streams, which makes Merge associative and order-insensitive.
// o is unchanged; merging a nil or empty histogram is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += o.total
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.sum += o.sum
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Reset empties the histogram for reuse.
func (h *Histogram) Reset() {
	*h = *New()
}
