// Package core implements STZ, the paper's contribution: a streaming
// error-bounded lossy compressor built on hierarchical stride-2 parity
// partitioning with multi-dimensional interpolation prediction across
// levels. It supports progressive decompression (reconstruct only the
// coarse levels) and random-access decompression (reconstruct only a box or
// slice region), while matching SZ3-class compression quality.
//
// Pipeline (3-level default, §3.2 of the paper):
//
//	level 1:  A  = stride-4 parity class (1/64 of a 3D volume), compressed
//	          with the SZ3 substrate at a tightened error bound;
//	level 2:  the remaining 7 stride-4 classes — i.e. the non-zero stride-2
//	          classes of the stride-2 coarse grid — predicted from the
//	          reconstructed A by multi-dimensional cubic interpolation,
//	          residuals quantized and Huffman-coded per class;
//	level 3:  the 7 non-zero stride-2 classes of the full grid, predicted
//	          from the reconstructed levels 1+2 the same way.
//
// Every predicted point depends only on the previous level's
// reconstruction, never on points of its own level — the property that
// makes both random access and high parallel efficiency possible.
package core

import (
	"fmt"
	"math"

	"stz/internal/quant"
)

// Predictor selects the cross-level prediction kernel (the paper's
// optimization ladder in Fig. 5).
type Predictor uint8

const (
	// PredDirect copies the base coarse neighbour (Eq. 1, "Direct pred").
	PredDirect Predictor = iota
	// PredLinear uses multi-dimensional linear interpolation (Eqs. 3–5).
	PredLinear
	// PredCubic uses multi-dimensional cubic-spline interpolation
	// (Eqs. 6–8); the default.
	PredCubic
)

func (p Predictor) String() string {
	switch p {
	case PredDirect:
		return "direct"
	case PredLinear:
		return "linear"
	case PredCubic:
		return "cubic"
	}
	return fmt.Sprintf("Predictor(%d)", uint8(p))
}

// Config controls compression. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// EB is the absolute error bound applied to the finest level.
	// Use quant.AbsoluteBound to derive it from a relative bound.
	EB float64
	// Levels is the hierarchy depth: 2 or 3 (the paper's §3.1 / §3.2), or
	// 4 — the paper's proposed extension for very large (4096³-class)
	// volumes, where the coarsest level is 1/512 of the data.
	Levels int
	// Predictor is the cross-level prediction kernel.
	Predictor Predictor
	// AdaptiveEB tightens coarser levels' bounds by EBRatio per level
	// (the paper's optimization 5: eb_l2 = 2.5 × eb_l1).
	AdaptiveEB bool
	// EBRatio is the per-level bound ratio; 0 selects 2.5.
	EBRatio float64
	// Radius is the quantizer radius, at most quant.DefaultRadius; 0
	// selects quant.DefaultRadius.
	Radius int32
	// Workers enables parallel compression of the per-class streams when
	// > 1. Level 1 is one serial sz3 call whatever Workers is, so the
	// archive does not depend on it.
	Workers int
}

// DefaultConfig returns the paper's recommended configuration: 3 levels,
// cubic prediction, adaptive bounds with ratio 2.5.
func DefaultConfig(eb float64) Config {
	return Config{
		EB:         eb,
		Levels:     3,
		Predictor:  PredCubic,
		AdaptiveEB: true,
		EBRatio:    2.5,
		Radius:     quant.DefaultRadius,
	}
}

func (c Config) ebRatio() float64 {
	if c.EBRatio <= 0 {
		return 2.5
	}
	return c.EBRatio
}

func (c Config) radius() int32 {
	if c.Radius <= 0 {
		return quant.DefaultRadius
	}
	return c.Radius
}

// levelEB returns the error bound for hierarchy level lv in 1..Levels
// (1 = coarsest). With adaptive bounds, level L gets EB and each coarser
// level is tightened by the ratio.
func (c Config) levelEB(lv int) float64 {
	if !c.AdaptiveEB {
		return c.EB
	}
	return c.EB / math.Pow(c.ebRatio(), float64(c.Levels-lv))
}

func (c Config) validate() error {
	if !(c.EB > 0) || math.IsInf(c.EB, 0) {
		return fmt.Errorf("core: invalid error bound %g", c.EB)
	}
	if c.Levels < 2 || c.Levels > 4 {
		return fmt.Errorf("core: Levels must be 2, 3 or 4, got %d", c.Levels)
	}
	if c.Predictor > PredCubic {
		return fmt.Errorf("core: unknown predictor %d", c.Predictor)
	}
	// Codes are uint16 (k + radius ≤ 2·radius − 1), and the reader refuses
	// a header with a larger radius.
	if c.Radius > quant.DefaultRadius {
		return fmt.Errorf("core: Radius %d above %d", c.Radius, quant.DefaultRadius)
	}
	return nil
}
