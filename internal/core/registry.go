package core

import (
	"stz/internal/codec"
	"stz/internal/grid"
)

// stzCodec is the paper's recommended configuration (DefaultConfig) as
// registry codec "stz". Its payload is a complete Compress archive, byte
// for byte, so everything the registry layers on a codec — SZXC framing,
// the streaming Writer/Reader, ReaderAt, stzd — serves STZ without knowing
// it, and box and level decodes are the Reader's own. The registration
// lives here: core imports codec, so codec cannot import core.
type stzCodec struct{}

func init() { codec.Register(stzCodec{}) }

func (stzCodec) Name() string { return "stz" }
func (stzCodec) ID() uint8    { return codec.IDSTZ }
func (stzCodec) Caps() codec.Caps {
	return codec.Caps{Progressive: true, RandomAccess: true,
		ParallelCompress: true, ParallelDecompress: true,
		MaxDims: 3, Float32: true, Float64: true}
}

func stzCompress[T grid.Float](g *grid.Grid[T], cfg codec.Config) ([]byte, error) {
	c := DefaultConfig(cfg.EB)
	c.Radius, c.Workers = cfg.Radius, cfg.Workers
	return Compress(g, c)
}

func stzOpen[T grid.Float](data []byte, workers int) (*Reader[T], error) {
	r, err := NewReader[T](data)
	if err != nil {
		return nil, err
	}
	r.Workers = workers
	return r, nil
}

func stzDecompress[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	r, err := stzOpen[T](data, workers)
	if err != nil {
		return nil, err
	}
	return r.Decompress()
}

func stzBox[T grid.Float](data []byte, b grid.Box, workers int) (*grid.Grid[T], error) {
	r, err := stzOpen[T](data, workers)
	if err != nil {
		return nil, err
	}
	g, _, err := r.DecompressBox(b)
	return g, err
}

func stzLevel[T grid.Float](data []byte, lv, workers int) (*grid.Grid[T], error) {
	r, err := stzOpen[T](data, workers)
	if err != nil {
		return nil, err
	}
	return r.Progressive(lv)
}

func (stzCodec) Compress32(g *grid.Grid[float32], cfg codec.Config) ([]byte, error) {
	return stzCompress(g, cfg)
}
func (stzCodec) Compress64(g *grid.Grid[float64], cfg codec.Config) ([]byte, error) {
	return stzCompress(g, cfg)
}
func (stzCodec) Decompress32(data []byte, workers int) (*grid.Grid[float32], error) {
	return stzDecompress[float32](data, workers)
}
func (stzCodec) Decompress64(data []byte, workers int) (*grid.Grid[float64], error) {
	return stzDecompress[float64](data, workers)
}
func (stzCodec) DecompressBox32(data []byte, b grid.Box, workers int) (*grid.Grid[float32], error) {
	return stzBox[float32](data, b, workers)
}
func (stzCodec) DecompressBox64(data []byte, b grid.Box, workers int) (*grid.Grid[float64], error) {
	return stzBox[float64](data, b, workers)
}
func (stzCodec) Dims(data []byte) (nz, ny, nx int, err error) {
	_, hdr, err := openArchive(data)
	return hdr.Fz, hdr.Fy, hdr.Fx, err
}
func (stzCodec) DecompressLevel32(data []byte, lv, workers int) (*grid.Grid[float32], error) {
	return stzLevel[float32](data, lv, workers)
}
func (stzCodec) DecompressLevel64(data []byte, lv, workers int) (*grid.Grid[float64], error) {
	return stzLevel[float64](data, lv, workers)
}
