package codec

import (
	"fmt"
	"sync"

	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/scratch"
)

// DimsReader is an optional Codec extension, which every registered backend
// implements: Dims reads the grid dims a payload declares from its header,
// validated, without decoding anything — what a caller about to size
// buffers from dims it was told checks the payload against first.
type DimsReader interface {
	Dims(data []byte) (nz, ny, nx int, err error)
}

// BoxDecoder is an optional Codec extension: backends whose payload
// supports native sub-region decoding implement it (and advertise
// Caps.RandomAccess). The box is expressed in the payload grid's
// coordinates and must already be validated by the caller; the result is
// bit-identical to the same window of a full Decompress, and the caller's:
// one that copies it out may hand its backing to the scratch arenas (sz3's
// is a lease). A box result has the box's dims, so it cannot tell a caller
// that the payload's grid is not the one expected: Dims tells it first.
type BoxDecoder interface {
	DimsReader
	DecompressBox32(data []byte, b grid.Box, workers int) (*grid.Grid[float32], error)
	DecompressBox64(data []byte, b grid.Box, workers int) (*grid.Grid[float64], error)
}

// DecompressBox dispatches a native sub-box decode to the matching element
// type, the random-access sibling of the generic Decompress front door.
func DecompressBox[T grid.Float](bd BoxDecoder, data []byte, b grid.Box, workers int) (*grid.Grid[T], error) {
	var v T
	if _, ok := any(v).(float32); ok {
		g, err := bd.DecompressBox32(data, b, workers)
		if err != nil {
			return nil, err
		}
		return any(g).(*grid.Grid[T]), nil
	}
	g, err := bd.DecompressBox64(data, b, workers)
	if err != nil {
		return nil, err
	}
	return any(g).(*grid.Grid[T]), nil
}

// ReaderAt provides random-access sub-box decoding over a unified encoded
// stream, for every registry codec. The archive's z-slab chunk directory
// gives the first level of addressing: a box decode touches only the
// payload sections whose plane range intersects the box, which the
// container's read accounting (BytesRead/PayloadBytes) makes observable.
// Within a slab, backends that decode sub-boxes natively (BoxDecoder, e.g.
// sz3) reconstruct only the requested window; other backends fall back to
// decoding the whole slab once and caching it, so repeated queries against
// a resident archive pay the slab decode only on first touch (the cache
// ceiling is the decompressed grid size). ReaderAt is safe for concurrent
// use.
type ReaderAt[T grid.Float] struct {
	// Workers bounds the per-query decode parallelism (values < 1 mean
	// serial). Set it before issuing queries.
	Workers int

	arc    *container.Archive
	hdr    Header
	c      Codec
	native BoxDecoder // non-nil when the backend decodes sub-boxes natively

	mu    sync.Mutex
	slabs map[int]*slabEntry[T]
}

// slabEntry caches one decoded z-slab for the full-decode fallback path.
// The once gate makes concurrent first touches decode exactly once.
type slabEntry[T grid.Float] struct {
	once sync.Once
	g    *grid.Grid[T]
	err  error
}

// OpenReaderAt parses the container framing and unified header of an
// encoded stream and returns a random-access reader over it. The type
// parameter must match the stream's element type.
func OpenReaderAt[T grid.Float](data []byte) (*ReaderAt[T], error) {
	arc, hdr, c, err := openFor[T](data)
	if err != nil {
		return nil, err
	}
	r := &ReaderAt[T]{Workers: 1, arc: arc, hdr: hdr, c: c, slabs: map[int]*slabEntry[T]{}}
	if bd, ok := c.(BoxDecoder); ok && c.Caps().RandomAccess {
		r.native = bd
	}
	// Opening charged the header section to the accounting; queries start
	// from a clean payload count.
	arc.ResetReadBytes()
	return r, nil
}

// Header returns the stream metadata.
func (r *ReaderAt[T]) Header() Header { return r.hdr }

// NativeRandomAccess reports whether the backend decodes sub-boxes
// natively. When false, box queries fall back to decoding whole slabs into
// the reader's cache, whose ceiling is the decompressed grid size — the
// number a byte-budgeted archive store charges for a resident reader.
func (r *ReaderAt[T]) NativeRandomAccess() bool { return r.native != nil }

// BytesRead reports the payload bytes fetched from the archive since it
// was opened — the container's chunk-read accounting. Sub-box queries that
// skip slabs read proportionally less than PayloadBytes.
func (r *ReaderAt[T]) BytesRead() int64 { return r.arc.ReadBytes() }

// ResetBytesRead zeroes the read accounting (for per-query measurements).
func (r *ReaderAt[T]) ResetBytesRead() { r.arc.ResetReadBytes() }

// PayloadBytes reports the archive's total payload size.
func (r *ReaderAt[T]) PayloadBytes() int64 { return int64(r.arc.PayloadLen()) }

// RawSection returns chunk i's still-compressed z-slab section exactly
// as stored in the archive — a self-describing stream decodable with
// Decompress. The returned slice aliases the archive buffer; callers
// must not mutate it. This is the zero-copy serving path: a server can
// ship slab-aligned box queries without decoding, charging only the
// section read to the archive's byte accounting.
func (r *ReaderAt[T]) RawSection(i int) ([]byte, error) {
	if i < 0 || i >= r.hdr.Chunks() {
		return nil, fmt.Errorf("%w: section %d of %d", ErrFormat, i, r.hdr.Chunks())
	}
	return r.arc.Section(i + 1)
}

// workers clamps the configured parallelism.
func (r *ReaderAt[T]) workers() int {
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// slab returns the decoded z-slab of chunk i, decoding and caching it on
// first touch (the fallback path for backends without native sub-box
// support). The cached grid is shared: callers must not mutate it.
func (r *ReaderAt[T]) slab(i int) (*grid.Grid[T], error) {
	r.mu.Lock()
	e, ok := r.slabs[i]
	if !ok {
		e = &slabEntry[T]{}
		r.slabs[i] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.g, e.err = r.decodeSlab(i) })
	return e.g, e.err
}

// decodeSlab decodes chunk i's whole z-slab and validates its dims.
func (r *ReaderAt[T]) decodeSlab(i int) (*grid.Grid[T], error) {
	sec, err := r.arc.Section(i + 1)
	if err != nil {
		return nil, err
	}
	g, err := Decompress[T](r.c, sec, r.workers())
	if err != nil {
		return nil, fmt.Errorf("codec: chunk %d: %w", i, err)
	}
	lo, hi := r.hdr.ChunkBounds[i], r.hdr.ChunkBounds[i+1]
	if g.Nz != hi-lo || g.Ny != r.hdr.Ny || g.Nx != r.hdr.Nx {
		return nil, fmt.Errorf("%w: chunk %d dims mismatch", ErrFormat, i)
	}
	return g, nil
}

// DecompressBox reconstructs only the region b — random-access
// decompression at the registry level. The result grid has the box's
// dimensions and is bit-identical to the same window of a full Decode.
// The box must lie entirely inside the grid (CheckBox; no silent
// clipping); it fails with an error wrapping ErrBox otherwise.
func (r *ReaderAt[T]) DecompressBox(b grid.Box) (*grid.Grid[T], error) {
	if err := CheckBox(b, r.hdr.Nz, r.hdr.Ny, r.hdr.Nx); err != nil {
		return nil, err
	}
	out := grid.New[T](b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
	bounds := r.hdr.ChunkBounds
	for i := 0; i < r.hdr.Chunks(); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= b.Z0 || lo >= b.Z1 {
			continue
		}
		if r.native != nil {
			sec, err := r.arc.Section(i + 1)
			if err != nil {
				return nil, err
			}
			// The box window in the slab's local coordinates.
			sb := grid.Box{
				Z0: max(b.Z0, lo) - lo, Z1: min(b.Z1, hi) - lo,
				Y0: b.Y0, Y1: b.Y1, X0: b.X0, X1: b.X1,
			}
			sub, err := DecompressBox[T](r.native, sec, sb, r.workers())
			if err != nil {
				return nil, fmt.Errorf("codec: chunk %d: %w", i, err)
			}
			// sub is the box window for global planes [max(b.Z0,lo),
			// min(b.Z1,hi)) and shares out's Y/X dims, so its planes land
			// contiguously in the output; its backing is then dead.
			plane := out.Ny * out.Nx
			copy(out.Data[(max(b.Z0, lo)-b.Z0)*plane:], sub.Data)
			scratch.ReleaseFloat(sub.Data)
			continue
		}
		slab, err := r.slab(i)
		if err != nil {
			return nil, err
		}
		out.CopyBoxFromSlab(slab, b, lo)
	}
	return out, nil
}
