package codec

import (
	"stz/internal/grid"
	"stz/internal/mgard"
	"stz/internal/sperr"
	"stz/internal/sz3"
	"stz/internal/zfp"
)

// Stable on-disk codec identifiers (never reuse or renumber; FORMAT.md).
// IDSTZ is the paper's codec, registered by internal/core (which imports
// this package for its base level, so the registration lives on its side).
const (
	IDSZ3   uint8 = 1
	IDZFP   uint8 = 2
	IDSPERR uint8 = 3
	IDMGARD uint8 = 4
	IDSTZ   uint8 = 5
)

// backend adapts a pair of generic compress/decompress functions to the
// Codec interface (interfaces cannot have generic methods, so the
// instantiations are stored per element type).
type backend struct {
	name string
	id   uint8
	caps Caps
	dims func([]byte) (int, int, int, error)
	c32  func(*grid.Grid[float32], Config) ([]byte, error)
	d32  func([]byte, int) (*grid.Grid[float32], error)
	c64  func(*grid.Grid[float64], Config) ([]byte, error)
	d64  func([]byte, int) (*grid.Grid[float64], error)
}

func (b *backend) Name() string { return b.name }
func (b *backend) ID() uint8    { return b.id }
func (b *backend) Caps() Caps   { return b.caps }

func (b *backend) Dims(data []byte) (nz, ny, nx int, err error) {
	return b.dims(data)
}

func (b *backend) Compress32(g *grid.Grid[float32], cfg Config) ([]byte, error) {
	return b.c32(g, cfg)
}
func (b *backend) Decompress32(data []byte, workers int) (*grid.Grid[float32], error) {
	return b.d32(data, workers)
}
func (b *backend) Compress64(g *grid.Grid[float64], cfg Config) ([]byte, error) {
	return b.c64(g, cfg)
}
func (b *backend) Decompress64(data []byte, workers int) (*grid.Grid[float64], error) {
	return b.d64(data, workers)
}

// boxBackend extends backend with native sub-box decoding (the BoxDecoder
// extension); only backends whose payload supports genuine sub-stream
// addressing are registered through it.
type boxBackend struct {
	backend
	b32 func([]byte, grid.Box, int) (*grid.Grid[float32], error)
	b64 func([]byte, grid.Box, int) (*grid.Grid[float64], error)
}

func (b *boxBackend) DecompressBox32(data []byte, bx grid.Box, workers int) (*grid.Grid[float32], error) {
	return b.b32(data, bx, workers)
}
func (b *boxBackend) DecompressBox64(data []byte, bx grid.Box, workers int) (*grid.Grid[float64], error) {
	return b.b64(data, bx, workers)
}

// reconBackend extends boxBackend with the ReconCompressor extension.
type reconBackend struct {
	boxBackend
	r32 func(*grid.Grid[float32], Config) ([]byte, *grid.Grid[float32], error)
	r64 func(*grid.Grid[float64], Config) ([]byte, *grid.Grid[float64], error)
}

func (b *reconBackend) CompressRecon32(g *grid.Grid[float32], cfg Config) ([]byte, *grid.Grid[float32], error) {
	return b.r32(g, cfg)
}
func (b *reconBackend) CompressRecon64(g *grid.Grid[float64], cfg Config) ([]byte, *grid.Grid[float64], error) {
	return b.r64(g, cfg)
}

func sz3Options(cfg Config) sz3.Options {
	return sz3.Options{EB: cfg.EB, Radius: cfg.radius(), Workers: cfg.Workers}
}

func sz3Compress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	return sz3.Compress(g, sz3Options(cfg))
}

func sz3CompressRecon[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, *grid.Grid[T], error) {
	return sz3.CompressRecon(g, sz3Options(cfg))
}

// sz3Decompress dispatches on the stream magic: Options.Workers > 1
// produces the chunked "OMP" stream variant.
func sz3Decompress[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	return sz3.DecompressWorkers[T](data, workers)
}

func zfpCompress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	return zfp.Compress(g, zfp.Options{Tolerance: cfg.EB, Workers: cfg.Workers})
}

func zfpDecompress[T grid.Float](data []byte, _ int) (*grid.Grid[T], error) {
	return zfp.Decompress[T](data)
}

func sperrCompress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	return sperr.Compress(g, sperr.Options{Tolerance: cfg.EB, Workers: cfg.Workers})
}

func sperrDecompress[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	return sperr.DecompressWorkers[T](data, workers)
}

func mgardCompress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	return mgard.Compress(g, mgard.Options{EB: cfg.EB, Workers: cfg.Workers})
}

func mgardDecompress[T grid.Float](data []byte, _ int) (*grid.Grid[T], error) {
	return mgard.Decompress[T](data)
}

func init() {
	Register(&reconBackend{
		boxBackend: boxBackend{
			backend: backend{
				name: "sz3", id: IDSZ3,
				caps: Caps{RandomAccess: true, ParallelCompress: true, ParallelDecompress: true,
					MaxDims: 3, Float32: true, Float64: true},
				dims: sz3.Dims,
				c32:  sz3Compress[float32], d32: sz3Decompress[float32],
				c64: sz3Compress[float64], d64: sz3Decompress[float64],
			},
			b32: sz3.DecompressBox[float32],
			b64: sz3.DecompressBox[float64],
		},
		r32: sz3CompressRecon[float32], r64: sz3CompressRecon[float64],
	})
	Register(&backend{
		name: "sperr", id: IDSPERR,
		caps: Caps{Progressive: true, ParallelCompress: true, ParallelDecompress: true,
			MaxDims: 3, Float32: true, Float64: true},
		dims: sperr.Dims,
		c32:  sperrCompress[float32], d32: sperrDecompress[float32],
		c64: sperrCompress[float64], d64: sperrDecompress[float64],
	})
	Register(&backend{
		name: "zfp", id: IDZFP,
		caps: Caps{RandomAccess: true, ParallelCompress: true,
			MaxDims: 3, Float32: true, Float64: true},
		dims: zfp.Dims,
		c32:  zfpCompress[float32], d32: zfpDecompress[float32],
		c64: zfpCompress[float64], d64: zfpDecompress[float64],
	})
	Register(&backend{
		name: "mgard", id: IDMGARD,
		caps: Caps{Progressive: true, ParallelCompress: true,
			MaxDims: 3, Float32: true, Float64: true},
		dims: mgard.Dims,
		c32:  mgardCompress[float32], d32: mgardDecompress[float32],
		c64: mgardCompress[float64], d64: mgardDecompress[float64],
	})
}
