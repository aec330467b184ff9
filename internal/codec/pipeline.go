package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// EncMagic identifies the section-0 header of a unified encoded stream
// ("SZXC" as little-endian bytes).
const EncMagic = uint32(0x43585a53)

// encVersion is the on-disk version of the unified header (docs/FORMAT.md).
// Every writer stamps version 2, which marks archives whose backend chunk
// payloads may use the multi-lane Huffman entropy layout. The payloads are
// self-describing, so readers accept version 1 too; the bump exists so
// pre-lane readers reject archives they cannot decode rather than failing
// deep inside a backend.
const (
	encVersion    = 2
	encVersionMin = 1
)

// chunkMinDepth is the minimum z-slab depth the automatic chunk planner
// will produce: thinner slabs lose too much cross-boundary correlation for
// too little extra parallelism.
const chunkMinDepth = 8

// ErrFormat reports a malformed unified stream header.
var ErrFormat = errors.New("codec: malformed encoded stream")

// Header is the decoded section-0 metadata of a unified encoded stream.
type Header struct {
	CodecID    uint8
	Codec      string // registry name, or "#<id>" when unregistered
	DType      byte   // 4 = float32, 8 = float64
	Mode       ErrorMode
	Nz, Ny, Nx int
	// EBRequested is the bound as configured (in Mode units); EBAbs is the
	// resolved absolute bound actually enforced point-wise.
	EBRequested float64
	EBAbs       float64
	// ChunkBounds are the z-slab boundaries: chunk i covers z-planes
	// [ChunkBounds[i], ChunkBounds[i+1]) and is stored in section i+1.
	ChunkBounds []int
}

// Chunks returns the number of z-slabs in the stream.
func (h Header) Chunks() int { return len(h.ChunkBounds) - 1 }

func (h Header) marshal() []byte {
	buf := make([]byte, 40+4*len(h.ChunkBounds))
	binary.LittleEndian.PutUint32(buf[0:], EncMagic)
	buf[4] = encVersion
	buf[5] = h.CodecID
	buf[6] = h.DType
	buf[7] = byte(h.Mode)
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Nz))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.Ny))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.Nx))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(h.EBRequested))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(h.EBAbs))
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(h.ChunkBounds)-1))
	for i, zb := range h.ChunkBounds {
		binary.LittleEndian.PutUint32(buf[40+4*i:], uint32(zb))
	}
	return buf
}

func unmarshalEncHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < 44 {
		return h, fmt.Errorf("%w: header too short", ErrFormat)
	}
	if binary.LittleEndian.Uint32(buf) != EncMagic {
		return h, fmt.Errorf("%w: bad header magic", ErrFormat)
	}
	if buf[4] < encVersionMin || buf[4] > encVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrFormat, buf[4])
	}
	h.CodecID = buf[5]
	h.DType = buf[6]
	h.Mode = ErrorMode(buf[7])
	h.Nz = int(binary.LittleEndian.Uint32(buf[8:]))
	h.Ny = int(binary.LittleEndian.Uint32(buf[12:]))
	h.Nx = int(binary.LittleEndian.Uint32(buf[16:]))
	h.EBRequested = math.Float64frombits(binary.LittleEndian.Uint64(buf[20:]))
	h.EBAbs = math.Float64frombits(binary.LittleEndian.Uint64(buf[28:]))
	nChunks := int(binary.LittleEndian.Uint32(buf[36:]))
	if h.DType != 4 && h.DType != 8 {
		return h, fmt.Errorf("%w: bad dtype %d", ErrFormat, h.DType)
	}
	if h.Mode > ModeRel {
		return h, fmt.Errorf("%w: bad error mode %d", ErrFormat, h.Mode)
	}
	if _, err := CheckDims(h.Nz, h.Ny, h.Nx); err != nil {
		return h, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if nChunks < 1 || nChunks > h.Nz {
		return h, fmt.Errorf("%w: implausible chunk count %d", ErrFormat, nChunks)
	}
	// Exactly the declared size: a tail would let two byte strings open as
	// the same archive.
	if want := 40 + 4*(nChunks+1); len(buf) != want {
		return h, fmt.Errorf("%w: header section of %d bytes, want %d", ErrFormat, len(buf), want)
	}
	h.ChunkBounds = make([]int, nChunks+1)
	for i := range h.ChunkBounds {
		h.ChunkBounds[i] = int(binary.LittleEndian.Uint32(buf[40+4*i:]))
	}
	// The bounds come from untrusted input and are used to slice payload
	// and output buffers, so they must be strictly increasing (no empty,
	// overlapping or reversed slabs) and cover [0, Nz] exactly.
	for i := 0; i < nChunks; i++ {
		if h.ChunkBounds[i] >= h.ChunkBounds[i+1] {
			return h, fmt.Errorf("%w: chunk bounds not strictly increasing", ErrFormat)
		}
	}
	if h.ChunkBounds[0] != 0 || h.ChunkBounds[nChunks] != h.Nz {
		return h, fmt.Errorf("%w: chunk bounds do not cover [0, %d)", ErrFormat, h.Nz)
	}
	if c, err := LookupID(h.CodecID); err == nil {
		h.Codec = c.Name()
	} else {
		h.Codec = fmt.Sprintf("#%d", h.CodecID)
	}
	return h, nil
}

// perChunkWorkers splits a worker budget across chunks: each chunk task
// gets an equal share of the pool for backend-internal parallelism.
func perChunkWorkers(workers, nChunks int) int {
	if workers <= nChunks {
		return 1
	}
	return workers / nChunks
}

// planChunkBounds chooses the z-slab boundaries. An explicit cfg.Chunks is
// honoured (clamped to the plane count); otherwise one slab per worker is
// used, but never thinner than chunkMinDepth planes — and a single slab
// for a LevelDecoder codec, whose hierarchy spans the grid and parallelises
// inside the payload: slabs would cost it ratio and its coarse levels.
func planChunkBounds(c Codec, nz int, cfg Config) []int {
	n := cfg.Chunks
	if n <= 0 {
		n = cfg.Workers
		if maxN := nz / chunkMinDepth; n > maxN {
			n = maxN
		}
		if _, ok := c.(LevelDecoder); ok {
			n = 1
		}
	}
	if n < 1 {
		n = 1
	}
	return parallel.Chunks(nz, n)
}

// newHeader looks up the named codec and returns it with the header of an
// (nz, ny, nx) grid of T compressed at cfg's bound, chunk plan included —
// the front half Encode and NewWriter share.
func newHeader[T grid.Float](name string, nz, ny, nx int, cfg Config) (Codec, Header, error) {
	c, err := Lookup(name)
	if err != nil {
		return nil, Header{}, err
	}
	if err := cfg.validate(); err != nil {
		return nil, Header{}, err
	}
	if _, err := CheckDims(nz, ny, nx); err != nil {
		return nil, Header{}, err
	}
	return c, Header{
		CodecID: c.ID(), DType: byte(rawio.ElemSize[T]()), Mode: cfg.Mode,
		Nz: nz, Ny: ny, Nx: nx,
		EBRequested: cfg.EB, EBAbs: cfg.EB, ChunkBounds: planChunkBounds(c, nz, cfg),
	}, nil
}

// encodeChunks compresses the z-slabs of chunks first, first+1, … of the
// stream hdr describes — slabs[i] holds chunk first+i's values — on up to
// cfg.Workers goroutines and returns their sections. cfg's bound must be
// absolute. A single-chunk stream compresses with cfg as given; a chunked
// one hands each slab an equal share of the worker budget for the
// backend's internal mode.
func encodeChunks[T grid.Float](c Codec, hdr Header, cfg Config, first int, slabs [][]T) ([][]byte, error) {
	slabCfg := cfg
	if hdr.Chunks() > 1 {
		slabCfg.Workers = perChunkWorkers(cfg.Workers, hdr.Chunks())
		slabCfg.Chunks = 1
	}
	blobs := make([][]byte, len(slabs))
	errs := make([]error, len(slabs))
	parallel.For(len(slabs), cfg.Workers, func(i int) {
		lo, hi := hdr.ChunkBounds[first+i], hdr.ChunkBounds[first+i+1]
		slab, err := grid.FromData(slabs[i], hi-lo, hdr.Ny, hdr.Nx)
		if err == nil {
			blobs[i], err = Compress(c, slab, slabCfg)
		}
		errs[i] = err
	})
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("codec: chunk %d: %w", first+i, e)
		}
	}
	return blobs, nil
}

// decodeChunk decompresses sec, the section of chunk i of the stream hdr
// describes, with workers goroutines and checks that it holds the chunk's
// z-slab.
func decodeChunk[T grid.Float](c Codec, hdr Header, i int, sec []byte, workers int) (*grid.Grid[T], error) {
	g, err := Decompress[T](c, sec, workers)
	if err != nil {
		return nil, fmt.Errorf("codec: chunk %d: %w", i, err)
	}
	if lo, hi := hdr.ChunkBounds[i], hdr.ChunkBounds[i+1]; g.Nz != hi-lo || g.Ny != hdr.Ny || g.Nx != hdr.Nx {
		return nil, fmt.Errorf("%w: chunk %d dims mismatch", ErrFormat, i)
	}
	return g, nil
}

// frame returns the container of a stream: the header section, then the
// chunk sections in order.
func (h Header) frame(blobs [][]byte) *container.Builder {
	var b container.Builder
	b.Add(h.marshal())
	for _, blob := range blobs {
		b.Add(blob)
	}
	return &b
}

// Encode compresses g with the named codec and frames the result into the
// container format behind a versioned header (docs/FORMAT.md). With
// cfg.Chunks != 1 and a deep enough grid, the grid is split into z-slabs
// compressed concurrently on up to cfg.Workers goroutines — the unified
// equivalent of the paper's per-backend "OMP" modes, with the same
// trade-off: chunks lose cross-boundary correlation, costing some ratio.
func Encode[T grid.Float](name string, g *grid.Grid[T], cfg Config) ([]byte, error) {
	c, hdr, err := newHeader[T](name, g.Nz, g.Ny, g.Nx, cfg)
	if err != nil {
		return nil, err
	}
	abs, err := resolveFor(cfg, g)
	if err != nil {
		return nil, err
	}
	hdr.EBAbs = abs.EB
	// z-slabs are contiguous in the row-major layout, so each chunk's
	// values are a zero-copy view of g.
	plane := g.Ny * g.Nx
	slabs := make([][]T, hdr.Chunks())
	for i := range slabs {
		slabs[i] = g.Data[hdr.ChunkBounds[i]*plane : hdr.ChunkBounds[i+1]*plane]
	}
	blobs, err := encodeChunks(c, hdr, abs, 0, slabs)
	if err != nil {
		return nil, err
	}
	return hdr.frame(blobs).Bytes(), nil
}

// Frame wraps payload — one backend stream covering the whole grid that h
// describes — as a single-chunk unified archive, the bytes Encode emits
// for the same payload. It is how a stream written outside Encode (a
// pre-registry core archive) joins the unified format.
func Frame(h Header, payload []byte) []byte {
	h.ChunkBounds = []int{0, h.Nz}
	return h.frame([][]byte{payload}).Bytes()
}

// openEncoded parses the container framing and unified header.
func openEncoded(data []byte) (*container.Archive, Header, error) {
	arc, err := container.Open(data)
	if err != nil {
		return nil, Header{}, err
	}
	if arc.Count() < 2 {
		return nil, Header{}, fmt.Errorf("%w: no payload sections", ErrFormat)
	}
	hsec, err := arc.Section(0)
	if err != nil {
		return nil, Header{}, err
	}
	hdr, err := unmarshalEncHeader(hsec)
	if err != nil {
		return nil, Header{}, err
	}
	if arc.Count() != hdr.Chunks()+1 {
		return nil, Header{}, fmt.Errorf("%w: want %d sections, have %d",
			ErrFormat, hdr.Chunks()+1, arc.Count())
	}
	return arc, hdr, nil
}

// openFor is openEncoded plus what every typed decode checks next: the
// stream's element type is T and its codec is registered.
func openFor[T grid.Float](data []byte) (*container.Archive, Header, Codec, error) {
	arc, hdr, err := openEncoded(data)
	if err != nil {
		return nil, Header{}, nil, err
	}
	if int(hdr.DType) != rawio.ElemSize[T]() {
		return nil, Header{}, nil, fmt.Errorf("codec: stream element type mismatch")
	}
	c, err := LookupID(hdr.CodecID)
	if err != nil {
		return nil, Header{}, nil, err
	}
	return arc, hdr, c, nil
}

// ParseHeader returns the unified header of an encoded stream without
// decompressing any payload.
func ParseHeader(data []byte) (Header, error) {
	_, hdr, err := openEncoded(data)
	return hdr, err
}

// IsEncoded reports whether data carries the unified encoded framing (as
// opposed to, e.g., a core STZ stream, which shares the outer container
// magic but not the section-0 header magic).
func IsEncoded(data []byte) bool {
	arc, err := container.Open(data)
	if err != nil || arc.Count() < 1 {
		return false
	}
	hsec, err := arc.Section(0)
	if err != nil || len(hsec) < 4 {
		return false
	}
	return binary.LittleEndian.Uint32(hsec) == EncMagic
}

// Decode reconstructs the grid from a unified encoded stream, decoding
// chunks concurrently on up to workers goroutines.
func Decode[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	arc, hdr, c, err := openFor[T](data)
	if err != nil {
		return nil, err
	}
	nChunks := hdr.Chunks()
	if nChunks == 1 {
		sec, err := arc.Section(1)
		if err != nil {
			return nil, err
		}
		return decodeChunk[T](c, hdr, 0, sec, workers)
	}
	out := grid.New[T](hdr.Nz, hdr.Ny, hdr.Nx)
	plane := hdr.Ny * hdr.Nx
	inner := perChunkWorkers(workers, nChunks)
	errs := make([]error, nChunks)
	parallel.For(nChunks, workers, func(i int) {
		sec, err := arc.Section(i + 1)
		if err != nil {
			errs[i] = err
			return
		}
		slab, err := decodeChunk[T](c, hdr, i, sec, inner)
		if err != nil {
			errs[i] = err
			return
		}
		copy(out.Data[hdr.ChunkBounds[i]*plane:], slab.Data)
		// The slab was only a staging buffer; recycle its backing array
		// (backends that lease their result grids get it back on the next
		// chunk, others just seed the pool).
		scratch.ReleaseFloat(slab.Data)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}

// LevelDecoder is an optional Codec extension: backends whose payload is a
// coarse-to-fine hierarchy implement it (and advertise Caps.Progressive).
// Level 1 is the coarsest; the result is the whole grid of that level and
// the finest level is bit-identical to a full Decompress.
type LevelDecoder interface {
	DecompressLevel32(data []byte, level, workers int) (*grid.Grid[float32], error)
	DecompressLevel64(data []byte, level, workers int) (*grid.Grid[float64], error)
}

// DecodeLevel reconstructs hierarchy level lv of a unified encoded stream
// — progressive decompression at the registry level. It fails for a codec
// without the LevelDecoder capability and for a multi-chunk archive, whose
// slabs each carry their own hierarchy.
func DecodeLevel[T grid.Float](data []byte, lv, workers int) (*grid.Grid[T], error) {
	arc, hdr, c, err := openFor[T](data)
	if err != nil {
		return nil, err
	}
	ld, ok := c.(LevelDecoder)
	if !ok {
		return nil, fmt.Errorf("codec: %s has no progressive levels", c.Name())
	}
	if hdr.Chunks() != 1 {
		return nil, fmt.Errorf("codec: level decode needs a single-chunk archive, this one has %d", hdr.Chunks())
	}
	sec, err := arc.Section(1)
	if err != nil {
		return nil, err
	}
	var v T
	if _, ok := any(v).(float32); ok {
		g, err := ld.DecompressLevel32(sec, lv, workers)
		if err != nil {
			return nil, err
		}
		return any(g).(*grid.Grid[T]), nil
	}
	g, err := ld.DecompressLevel64(sec, lv, workers)
	if err != nil {
		return nil, err
	}
	return any(g).(*grid.Grid[T]), nil
}
