// Package bench provides the uniform codec facade and measurement runners
// behind the experiment harness (cmd/stzbench), the go-bench benchmarks,
// and the open-loop load generator cmd/stzload drives (loadgen.go).
// It treats the five compressors of the paper's evaluation — STZ, SZ3,
// SPERR-lite, ZFP-lite and MGARD-lite — through one interface so every
// table and figure is generated by the same code path: all five are drawn
// from the unified registry (internal/codec). Only the Fig. 5 ablation
// ladder (ablation.go), which is not a registry codec, builds on
// internal/core directly.
package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/rawio"
)

// Codec is one compressor under a uniform API. EB is always the absolute
// error bound; workers ≤ 1 means serial.
type Codec[T grid.Float] struct {
	Name string
	// Feature flags from the paper's Table 1.
	Progressive  bool
	RandomAccess bool
	// ParallelDecompress is false for codecs without an OMP decompression
	// mode in the paper (ZFP, MGARD-X).
	ParallelDecompress bool

	Compress   func(g *grid.Grid[T], eb float64, workers int) ([]byte, error)
	Decompress func(data []byte, workers int) (*grid.Grid[T], error)
}

// displayName maps registry names to the paper's comparison labels.
var displayName = map[string]string{
	"stz": "Ours", "sz3": "SZ3", "sperr": "SPERR", "zfp": "ZFP", "mgard": "MGARDX",
}

// FromRegistry adapts a registered codec (internal/codec) to the bench
// facade, carrying its capability flags into the Table 1 feature columns.
func FromRegistry[T grid.Float](name string) (Codec[T], error) {
	c, err := codec.Lookup(name)
	if err != nil {
		return Codec[T]{}, err
	}
	caps := c.Caps()
	label := displayName[name]
	if label == "" {
		label = name
	}
	return Codec[T]{
		Name:               label,
		Progressive:        caps.Progressive,
		RandomAccess:       caps.RandomAccess,
		ParallelDecompress: caps.ParallelDecompress,
		Compress: func(g *grid.Grid[T], eb float64, workers int) ([]byte, error) {
			return codec.Compress(c, g, codec.Config{EB: eb, Workers: workers})
		},
		Decompress: func(data []byte, workers int) (*grid.Grid[T], error) {
			return codec.Decompress[T](c, data, workers)
		},
	}, nil
}

// builtin is FromRegistry for the five names that always register at init.
func builtin[T grid.Float](name string) Codec[T] {
	c, err := FromRegistry[T](name)
	if err != nil {
		panic(err)
	}
	return c
}

// Codecs returns the five compressors in the paper's comparison order:
// Ours (STZ), SZ3, SPERR, ZFP, MGARD.
func Codecs[T grid.Float]() []Codec[T] {
	var out []Codec[T]
	for _, name := range []string{"stz", "sz3", "sperr", "zfp", "mgard"} {
		out = append(out, builtin[T](name))
	}
	return out
}

// STZ returns the paper's compressor under the default (3-level, cubic,
// adaptive) configuration — the registry codec "stz".
func STZ[T grid.Float]() Codec[T] { return builtin[T]("stz") }

// STZVariant returns STZ under a configuration other than the default: the
// later rungs of the Fig. 5 ladder, the ebratio calibration.
func STZVariant[T grid.Float](name string, cfg func(eb float64) core.Config) Codec[T] {
	return Codec[T]{
		Name: name,
		Compress: func(g *grid.Grid[T], eb float64, workers int) ([]byte, error) {
			c := cfg(eb)
			c.Workers = workers
			return core.Compress(g, c)
		},
		// Decoding is header-driven, so the registry codec reads any variant.
		Decompress: builtin[T]("stz").Decompress,
	}
}

// Result is one measured compression/decompression run.
type Result struct {
	Codec           string
	EBRel, EBAbs    float64
	CR              float64
	BitRate         float64
	PSNR            float64
	SSIM            float64
	MaxErr          float64
	CompressedBytes int
	CompressTime    time.Duration
	DecompressTime  time.Duration
}

// Run compresses and decompresses g at a value-range-relative bound,
// validating the bound and collecting all metrics. withSSIM controls the
// (expensive) SSIM computation.
func Run[T grid.Float](c Codec[T], g *grid.Grid[T], ebRel float64, workers int, withSSIM bool) (Result, error) {
	mn, mx := g.Range()
	ebAbs := ebRel * (float64(mx) - float64(mn))
	if !(ebAbs > 0) {
		ebAbs = ebRel
	}
	res := Result{Codec: c.Name, EBRel: ebRel, EBAbs: ebAbs}

	t0 := time.Now()
	enc, err := c.Compress(g, ebAbs, workers)
	if err != nil {
		return res, fmt.Errorf("%s compress: %w", c.Name, err)
	}
	res.CompressTime = time.Since(t0)
	res.CompressedBytes = len(enc)

	t1 := time.Now()
	dec, err := c.Decompress(enc, workers)
	if err != nil {
		return res, fmt.Errorf("%s decompress: %w", c.Name, err)
	}
	res.DecompressTime = time.Since(t1)

	d, err := metrics.Compare(g, dec)
	if err != nil {
		return res, err
	}
	if d.MaxErr > ebAbs*(1+1e-9) {
		return res, fmt.Errorf("%s violated error bound: %g > %g", c.Name, d.MaxErr, ebAbs)
	}
	ratio := metrics.Ratio{OriginalBytes: g.Len() * rawio.ElemSize[T](), CompressedBytes: len(enc)}
	res.CR = ratio.CR()
	res.BitRate = ratio.BitRate(rawio.ElemSize[T]())
	res.PSNR = d.PSNR
	res.MaxErr = d.MaxErr
	if withSSIM {
		s, err := metrics.SSIM3D(g, dec)
		if err != nil {
			return res, err
		}
		res.SSIM = s
	}
	return res, nil
}

// ErrTargetMissed is EBForTargetCR's report that the closest compression
// ratio it found lies more than 5 % from the target — a ratio the codec
// cannot reach at any bound, such as one past the 32× ceiling one Huffman
// bit a float32 point sets. The closest row comes back with it.
var ErrTargetMissed = errors.New("bench: target compression ratio missed")

// EBForTargetCR searches (by bisection on the relative bound) for a bound
// whose compressed size lands within 5 % of the target compression ratio,
// and returns the closest row it found: with ErrTargetMissed when even that
// one is further off. Used by the matched-CR visual-quality experiments
// (Figs. 3 and 12).
func EBForTargetCR[T grid.Float](c Codec[T], g *grid.Grid[T], targetCR float64, workers int) (float64, Result, error) {
	lo, hi := 1e-6, 0.5
	var best Result
	bestEB := lo
	bestDiff := 1e18
	for iter := 0; iter < 12; iter++ {
		mid := sqrtGeo(lo, hi)
		r, err := Run(c, g, mid, workers, false)
		if err != nil {
			return 0, Result{}, err
		}
		if diff := math.Abs(r.CR - targetCR); diff < bestDiff {
			bestDiff, best, bestEB = diff, r, mid
		}
		if r.CR < targetCR {
			lo = mid
		} else {
			hi = mid
		}
	}
	if math.Abs(best.CR/targetCR-1) > 0.05 {
		return bestEB, best, fmt.Errorf("%w: closest CR %.1f for target %.1f", ErrTargetMissed, best.CR, targetCR)
	}
	return bestEB, best, nil
}

func sqrtGeo(a, b float64) float64 {
	return math.Sqrt(a * b)
}
