// Package codec unifies the compressors of this repository behind one Codec
// interface and a process-wide registry — the four baselines it registers
// itself, SZ3 (internal/sz3), ZFP-lite (internal/zfp), SPERR-lite
// (internal/sperr) and MGARD-lite (internal/mgard), and the paper's STZ,
// which internal/core registers as "stz" — and layers a parallel chunked
// pipeline on top: large grids are split into z-slabs, compressed
// concurrently on a bounded worker pool, and framed into the
// internal/container section format behind a versioned header that records
// the codec ID, chunk geometry and error-bound mode (see docs/FORMAT.md for
// the byte-level spec).
//
// The dependency points from core to here (core registers "stz" itself),
// so a program serves "stz" by linking internal/core; cmd/stz,
// internal/stzd and internal/bench all do, and reach every codec through
// this package alone.
package codec

import (
	"fmt"

	"stz/internal/grid"
	"stz/internal/quant"
)

// ErrorMode selects how Config.EB is interpreted.
type ErrorMode uint8

const (
	// ModeAbs treats EB as an absolute point-wise error bound.
	ModeAbs ErrorMode = iota
	// ModeRel treats EB as relative to the grid's value range; it is
	// resolved to an absolute bound against the data before compression.
	ModeRel
)

func (m ErrorMode) String() string {
	if m == ModeRel {
		return "rel"
	}
	return "abs"
}

// Caps describes a backend's capability profile (the feature matrix of the
// paper's Table 1, plus dtype/dimensionality support).
type Caps struct {
	// Progressive reports native coarse-first decompression support.
	Progressive bool
	// RandomAccess reports native sub-region decompression support.
	RandomAccess bool
	// ParallelCompress reports a backend-internal parallel compression
	// mode (all backends are chunk-parallel through Encode regardless).
	ParallelCompress bool
	// ParallelDecompress reports a backend-internal parallel
	// decompression mode.
	ParallelDecompress bool
	// MaxDims is the highest intrinsic dimensionality supported (3 for
	// every current backend; 1D/2D grids are 3D grids with unit dims).
	MaxDims int
	// Float32 and Float64 report element-type support.
	Float32, Float64 bool
}

// Config controls a single compression call. EB must be > 0.
type Config struct {
	// EB is the error bound, interpreted per Mode.
	EB float64
	// Mode is the error-bound mode; the zero value is ModeAbs.
	Mode ErrorMode
	// Radius is the quantizer radius for quantizing backends, at most
	// quant.DefaultRadius; 0 selects quant.DefaultRadius.
	Radius int32
	// Workers bounds backend-internal parallelism (and, through Encode,
	// the chunk worker pool); values < 1 mean serial.
	Workers int
	// Chunks requests the chunked pipeline in Encode: the grid is split
	// into this many z-slabs compressed independently. 0 lets Encode
	// choose — from Workers, or one slab for a LevelDecoder codec; 1
	// forces a single chunk.
	Chunks int
}

// Resolve returns cfg with a relative bound resolved to an absolute one
// against the value range [min, max]. Absolute-mode configs pass through.
func (cfg Config) Resolve(min, max float64) Config {
	if cfg.Mode == ModeRel {
		cfg.EB = quant.AbsoluteBound(cfg.EB, min, max)
		cfg.Mode = ModeAbs
	}
	return cfg
}

func (cfg Config) validate() error {
	if !(cfg.EB > 0) {
		return fmt.Errorf("codec: invalid error bound %g", cfg.EB)
	}
	// The quantizing backends write uint16 codes, and their readers refuse
	// a larger radius.
	if cfg.Radius > quant.DefaultRadius {
		return fmt.Errorf("codec: radius %d above %d", cfg.Radius, quant.DefaultRadius)
	}
	return nil
}

func (cfg Config) radius() int32 {
	if cfg.Radius <= 0 {
		return quant.DefaultRadius
	}
	return cfg.Radius
}

// Codec is one compressor backend under the unified API. Compress returns
// the backend's raw stream (no container framing; Encode adds that), and
// Decompress inverts it. Go interfaces cannot carry generic methods, so
// the two element types get method pairs; the generic Compress/Decompress
// package functions dispatch between them.
type Codec interface {
	// Name is the registry key ("stz", "sz3", "zfp", "sperr", "mgard").
	Name() string
	// ID is the stable on-disk codec identifier (see docs/FORMAT.md).
	ID() uint8
	// Caps reports the capability profile.
	Caps() Caps

	Compress32(g *grid.Grid[float32], cfg Config) ([]byte, error)
	Decompress32(data []byte, workers int) (*grid.Grid[float32], error)
	Compress64(g *grid.Grid[float64], cfg Config) ([]byte, error)
	Decompress64(data []byte, workers int) (*grid.Grid[float64], error)
}

// Compress runs c on g with a relative bound resolved first. It is the
// generic front door over the Compress32/Compress64 method pair.
func Compress[T grid.Float](c Codec, g *grid.Grid[T], cfg Config) ([]byte, error) {
	cfg, err := resolveFor(cfg, g)
	if err != nil {
		return nil, err
	}
	switch gg := any(g).(type) {
	case *grid.Grid[float32]:
		return c.Compress32(gg, cfg)
	case *grid.Grid[float64]:
		return c.Compress64(gg, cfg)
	}
	return nil, fmt.Errorf("codec: unsupported element type")
}

// resolveFor validates cfg and resolves a relative bound against g's range
// — the one relative-bound resolution of Compress and Encode.
func resolveFor[T grid.Float](cfg Config, g *grid.Grid[T]) (Config, error) {
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	if cfg.Mode == ModeRel {
		mn, mx := g.Range()
		cfg = cfg.Resolve(float64(mn), float64(mx))
		if err := cfg.validate(); err != nil {
			return cfg, fmt.Errorf("codec: relative bound resolves to %g on range [%g, %g]",
				cfg.EB, mn, mx)
		}
	}
	return cfg, nil
}

// Decompress inverts Compress for the matching element type.
func Decompress[T grid.Float](c Codec, data []byte, workers int) (*grid.Grid[T], error) {
	var v T
	if _, ok := any(v).(float32); ok {
		g, err := c.Decompress32(data, workers)
		if err != nil {
			return nil, err
		}
		return any(g).(*grid.Grid[T]), nil
	}
	g, err := c.Decompress64(data, workers)
	if err != nil {
		return nil, err
	}
	return any(g).(*grid.Grid[T]), nil
}

// maxGridElems bounds the element count accepted from untrusted dims.
const maxGridElems = int64(1) << 33

// CheckDims validates grid dimensions from untrusted input and returns
// the element count. Each dimension must be positive and the product must
// not exceed 2³³ elements; the multiplication is performed overflow-safe,
// so dimensions crafted to wrap the product cannot slip through.
func CheckDims(nz, ny, nx int) (int64, error) {
	z, y, x := int64(nz), int64(ny), int64(nx)
	if z < 1 || y < 1 || x < 1 ||
		z > maxGridElems || y > maxGridElems || x > maxGridElems ||
		z > maxGridElems/y || z*y > maxGridElems/x {
		return 0, fmt.Errorf("codec: implausible dims %d×%d×%d", nz, ny, nx)
	}
	return z * y * x, nil
}
