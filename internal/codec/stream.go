package codec

import (
	"fmt"
	"io"

	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/scratch"
)

// maxStreamHeaderLen bounds the section-0 allocation accepted from an
// untrusted directory: 40 fixed bytes plus one uint32 bound per chunk,
// capped by the container's own section-count limit.
const maxStreamHeaderLen = 40 + 4*((1<<20)+1)

// sectionSlack is the absolute allocation headroom allowed on top of the
// per-slab expansion factor when validating compressed section lengths
// from an untrusted directory.
const sectionSlack = 1 << 20

// maxSectionFactor is the largest plausible compressed-to-raw expansion of
// any backend (verbatim fallbacks stay near 1x; 16x already means a badly
// broken stream and protects streaming readers from directory-driven
// allocation attacks).
const maxSectionFactor = 16

// Writer encodes a grid incrementally into the unified encoded format
// (docs/FORMAT.md) with bounded memory: values arrive in row-major order
// through Write, complete z-slabs accumulate up to a fixed window and are
// then compressed as one parallel batch on the worker pool, and Close
// frames the compressed sections into the container. The emitted bytes are
// identical to Encode on the same grid and configuration, so streamed
// archives are indistinguishable from buffered ones.
//
// Raw-side memory is bounded by Window slabs; the compressed sections are
// retained until Close because the container directory precedes the
// payloads. The bound must be absolute (resolve relative bounds against
// the data range first, see Config.Resolve); the pre-resolution bound can
// be recorded in the header with SetRequestedBound for byte compatibility
// with relative-mode Encode.
type Writer[T grid.Float] struct {
	// Window is the maximum number of complete raw z-slabs buffered before
	// a compression batch is flushed. 0 selects max(1, cfg.Workers). It
	// must be set before the first Write.
	Window int

	w      io.Writer
	c      Codec
	cfg    Config // absolute-mode, as used for per-chunk compression
	hdr    Header
	plane  int
	window int // resolved on first Write

	chunk      int // index of the chunk currently being filled
	slab       []T // buffer for that chunk (nil until first value)
	slabLen    int
	batch      [][]T // complete slabs awaiting compression
	batchFirst int   // chunk index of batch[0]
	blobs      [][]byte

	started bool
	closed  bool
	err     error
}

// NewWriter returns a streaming encoder that writes the unified encoded
// form of an (nz, ny, nx) grid of T compressed by the named codec to w.
// cfg is interpreted exactly as by Encode, except that relative bounds are
// rejected: a streaming encoder cannot see the full value range in
// advance, so the caller must resolve the bound first.
func NewWriter[T grid.Float](w io.Writer, name string, nz, ny, nx int, cfg Config) (*Writer[T], error) {
	c, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeRel {
		return nil, fmt.Errorf("codec: streaming writer requires an absolute bound; resolve the relative bound first (Config.Resolve) and record it with SetRequestedBound")
	}
	if _, err := CheckDims(nz, ny, nx); err != nil {
		return nil, err
	}
	bounds := planChunkBounds(c, nz, cfg)
	return &Writer[T]{
		w:   w,
		c:   c,
		cfg: cfg,
		hdr: Header{
			CodecID: c.ID(), DType: dtypeOf[T](), Mode: cfg.Mode,
			Nz: nz, Ny: ny, Nx: nx,
			EBRequested: cfg.EB, EBAbs: cfg.EB, ChunkBounds: bounds,
		},
		plane: ny * nx,
	}, nil
}

// SetRequestedBound records the pre-resolution error bound and mode in the
// stream header, matching what Encode writes for relative-mode configs.
// It must be called before the first Write.
func (sw *Writer[T]) SetRequestedBound(eb float64, mode ErrorMode) error {
	if sw.started || sw.closed {
		return fmt.Errorf("codec: SetRequestedBound after first Write")
	}
	sw.hdr.EBRequested = eb
	sw.hdr.Mode = mode
	return nil
}

// Header returns the stream header the writer will emit.
func (sw *Writer[T]) Header() Header { return sw.hdr }

// Write appends values in row-major (x fastest) order. It may be called
// with any granularity — single values, partial planes, whole slabs — and
// triggers a parallel compression batch whenever Window slabs are full.
func (sw *Writer[T]) Write(vals []T) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return fmt.Errorf("codec: write on closed Writer")
	}
	if !sw.started {
		sw.started = true
		sw.window = sw.Window
		if sw.window <= 0 {
			sw.window = sw.cfg.Workers
		}
		if sw.window < 1 {
			sw.window = 1
		}
		// Pre-size the accumulators once: blobs holds every compressed
		// section until Close, batch at most one window of slabs.
		sw.blobs = make([][]byte, 0, sw.hdr.Chunks())
		sw.batch = make([][]T, 0, sw.window)
	}
	nChunks := sw.hdr.Chunks()
	for len(vals) > 0 {
		if sw.chunk >= nChunks {
			sw.err = fmt.Errorf("codec: more than %d values written to %d×%d×%d stream",
				sw.hdr.Nz*sw.plane, sw.hdr.Nz, sw.hdr.Ny, sw.hdr.Nx)
			return sw.err
		}
		if sw.slab == nil {
			depth := sw.hdr.ChunkBounds[sw.chunk+1] - sw.hdr.ChunkBounds[sw.chunk]
			// Slabs are scratch leases: filled completely before compression
			// and released as soon as their compressed section exists.
			sw.slab = scratch.LeaseFloat[T](depth * sw.plane)
			sw.slabLen = 0
		}
		n := copy(sw.slab[sw.slabLen:], vals)
		sw.slabLen += n
		vals = vals[n:]
		if sw.slabLen == len(sw.slab) {
			if len(sw.batch) == 0 {
				sw.batchFirst = sw.chunk
			}
			sw.batch = append(sw.batch, sw.slab)
			sw.slab = nil
			sw.slabLen = 0
			sw.chunk++
			if len(sw.batch) >= sw.window {
				if err := sw.flush(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// chunkConfig returns the per-slab compression config, mirroring Encode:
// a single-chunk stream keeps the caller's config verbatim; a chunked one
// hands each slab an equal share of the worker budget.
func (sw *Writer[T]) chunkConfig() Config {
	if sw.hdr.Chunks() == 1 {
		return sw.cfg
	}
	c := sw.cfg
	c.Workers = perChunkWorkers(sw.cfg.Workers, sw.hdr.Chunks())
	c.Chunks = 1
	return c
}

// flush compresses the buffered batch of complete slabs in parallel and
// retains the compressed sections for Close.
func (sw *Writer[T]) flush() error {
	if len(sw.batch) == 0 {
		return nil
	}
	cfgc := sw.chunkConfig()
	blobs := make([][]byte, len(sw.batch))
	errs := make([]error, len(sw.batch))
	first := sw.batchFirst
	parallel.For(len(sw.batch), sw.cfg.Workers, func(i int) {
		lo, hi := sw.hdr.ChunkBounds[first+i], sw.hdr.ChunkBounds[first+i+1]
		slab, err := grid.FromData(sw.batch[i], hi-lo, sw.hdr.Ny, sw.hdr.Nx)
		if err != nil {
			errs[i] = err
			return
		}
		blobs[i], errs[i] = Compress(sw.c, slab, cfgc)
	})
	for i := range sw.batch {
		scratch.ReleaseFloat(sw.batch[i])
		sw.batch[i] = nil
	}
	sw.batch = sw.batch[:0]
	for i, e := range errs {
		if e != nil {
			sw.err = fmt.Errorf("codec: chunk %d: %w", first+i, e)
			return sw.err
		}
	}
	sw.blobs = append(sw.blobs, blobs...)
	return nil
}

// Close flushes the remaining slabs and writes the container (directory
// first, then the header and slab sections). It fails if fewer values were
// written than the grid holds.
func (sw *Writer[T]) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.slab != nil {
		// A partially filled slab can only mean a short stream; hand the
		// lease back before reporting it.
		scratch.ReleaseFloat(sw.slab)
		sw.slab = nil
	}
	if sw.err != nil {
		return sw.err
	}
	if sw.slabLen > 0 || sw.chunk < sw.hdr.Chunks() {
		written := sw.hdr.ChunkBounds[sw.chunk]*sw.plane + sw.slabLen
		sw.err = fmt.Errorf("codec: short stream: %d of %d values written",
			written, sw.hdr.Nz*sw.plane)
		return sw.err
	}
	if err := sw.flush(); err != nil {
		return err
	}
	var b container.Builder
	b.Add(sw.hdr.marshal())
	for _, blob := range sw.blobs {
		b.Add(blob)
	}
	if _, err := b.WriteTo(sw.w); err != nil {
		sw.err = err
		return err
	}
	return nil
}

// Stream is a unified encoded archive opened over a sequential reader: the
// container directory and the header section have been consumed and
// validated, and the slab sections follow in order. It is the common
// element-type-agnostic front half of NewReader, letting servers dispatch
// on Header().DType before committing to a concrete Reader[T].
type Stream struct {
	r       io.Reader
	dir     *container.Dir
	hdr     Header
	claimed bool
}

// OpenStream consumes the container directory and header section from r.
func OpenStream(r io.Reader) (*Stream, error) {
	dir, err := container.ReadDirFrom(r)
	if err != nil {
		return nil, err
	}
	if dir.Count() < 2 {
		return nil, fmt.Errorf("%w: no payload sections", ErrFormat)
	}
	hlen := dir.SectionLen(0)
	if hlen < 44 || hlen > maxStreamHeaderLen {
		return nil, fmt.Errorf("%w: implausible header section length %d", ErrFormat, hlen)
	}
	hbuf := scratch.Bytes.Lease(int(hlen))
	if _, err := io.ReadFull(r, hbuf); err != nil {
		scratch.Bytes.Release(hbuf)
		return nil, fmt.Errorf("%w: truncated header section: %w", ErrFormat, err)
	}
	hdr, err := unmarshalEncHeader(hbuf)
	scratch.Bytes.Release(hbuf)
	if err != nil {
		return nil, err
	}
	if dir.Count() != hdr.Chunks()+1 {
		return nil, fmt.Errorf("%w: want %d sections, have %d",
			ErrFormat, hdr.Chunks()+1, dir.Count())
	}
	return &Stream{r: r, dir: dir, hdr: hdr}, nil
}

// Header returns the parsed stream header.
func (s *Stream) Header() Header { return s.hdr }

// Reader decodes a unified encoded stream incrementally with bounded
// memory: slab sections are read sequentially off the underlying reader,
// decompressed in parallel batches of up to Window slabs, and served to
// the consumer in row-major order through Read.
type Reader[T grid.Float] struct {
	// Workers bounds the decompression parallelism (across slabs in a
	// batch, with any surplus handed to backend-internal modes).
	Workers int
	// Window is the maximum number of slabs resident at once. 0 selects
	// max(2, Workers).
	Window int

	s     *Stream
	c     Codec
	chunk int // next chunk index to decode
	ready []*grid.Grid[T]
	head  int // index of the slab currently being served
	cur   int // served offset into ready[head].Data
	err   error
}

// NewReader opens a unified encoded stream for incremental decoding. The
// stream's element type must match T (use OpenStream + NewStreamReader to
// dispatch on the header's DType first).
func NewReader[T grid.Float](r io.Reader) (*Reader[T], error) {
	s, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	return NewStreamReader[T](s)
}

// NewStreamReader turns an opened Stream into a decoding Reader.
func NewStreamReader[T grid.Float](s *Stream) (*Reader[T], error) {
	if s.claimed {
		return nil, fmt.Errorf("codec: stream already claimed by a reader")
	}
	if s.hdr.DType != dtypeOf[T]() {
		return nil, fmt.Errorf("codec: stream element type mismatch")
	}
	c, err := LookupID(s.hdr.CodecID)
	if err != nil {
		return nil, err
	}
	s.claimed = true
	return &Reader[T]{s: s, c: c}, nil
}

// Header returns the stream header.
func (sr *Reader[T]) Header() Header { return sr.s.hdr }

// Read fills dst with the next values of the grid in row-major order,
// decoding further slab batches as needed. It returns io.EOF after the
// final value has been served.
func (sr *Reader[T]) Read(dst []T) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	total := 0
	for len(dst) > 0 {
		if sr.head == len(sr.ready) {
			if sr.chunk >= sr.s.hdr.Chunks() {
				if total > 0 {
					return total, nil
				}
				return 0, io.EOF
			}
			if err := sr.fill(); err != nil {
				sr.err = err
				if total > 0 {
					return total, nil
				}
				return 0, err
			}
		}
		head := sr.ready[sr.head]
		n := copy(dst, head.Data[sr.cur:])
		sr.cur += n
		dst = dst[n:]
		total += n
		if sr.cur == len(head.Data) {
			// The slab is fully served; recycle its backing array so the
			// next decode batch leases it instead of allocating.
			scratch.ReleaseFloat(head.Data)
			sr.ready[sr.head] = nil
			sr.head++
			sr.cur = 0
		}
	}
	return total, nil
}

// fill reads and decompresses the next window of slab sections.
func (sr *Reader[T]) fill() error {
	hdr := sr.s.hdr
	window := sr.Window
	if window <= 0 {
		window = sr.Workers
		if window < 2 {
			window = 2
		}
	}
	batchN := hdr.Chunks() - sr.chunk
	if batchN > window {
		batchN = window
	}
	var elem int64 = 8
	if hdr.DType == 4 {
		elem = 4
	}
	// Compressed section buffers are scratch leases, released as soon as
	// their slab is decoded (no backend retains its input).
	secs := make([][]byte, batchN)
	for i := 0; i < batchN; i++ {
		ci := sr.chunk + i
		l := sr.s.dir.SectionLen(ci + 1)
		raw := int64(hdr.ChunkBounds[ci+1]-hdr.ChunkBounds[ci]) *
			int64(hdr.Ny) * int64(hdr.Nx) * elem
		if l < 0 || l > maxSectionFactor*raw+sectionSlack {
			return fmt.Errorf("%w: implausible section length %d for chunk %d", ErrFormat, l, ci)
		}
		secs[i] = scratch.Bytes.Lease(int(l))
		if _, err := io.ReadFull(sr.s.r, secs[i]); err != nil {
			for _, sec := range secs {
				scratch.Bytes.Release(sec)
			}
			return fmt.Errorf("%w: truncated chunk %d: %w", ErrFormat, ci, err)
		}
	}
	inner := perChunkWorkers(sr.Workers, batchN)
	slabs := make([]*grid.Grid[T], batchN)
	errs := make([]error, batchN)
	first := sr.chunk
	parallel.For(batchN, sr.Workers, func(i int) {
		slab, err := Decompress[T](sr.c, secs[i], inner)
		scratch.Bytes.Release(secs[i])
		secs[i] = nil
		if err != nil {
			errs[i] = err
			return
		}
		lo, hi := hdr.ChunkBounds[first+i], hdr.ChunkBounds[first+i+1]
		if slab.Nz != hi-lo || slab.Ny != hdr.Ny || slab.Nx != hdr.Nx {
			errs[i] = fmt.Errorf("%w: chunk %d dims mismatch", ErrFormat, first+i)
			return
		}
		slabs[i] = slab
	})
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("codec: chunk %d: %w", first+i, e)
		}
	}
	// Reuse the ready ring's capacity once every served slab is consumed.
	if sr.head == len(sr.ready) {
		sr.ready = sr.ready[:0]
		sr.head = 0
	}
	sr.ready = append(sr.ready, slabs...)
	sr.chunk += batchN
	return nil
}

// ReadGrid decodes the entire remaining stream into one grid. On a fresh
// reader it is the streaming equivalent of Decode.
func (sr *Reader[T]) ReadGrid() (*grid.Grid[T], error) {
	hdr := sr.s.hdr
	out := grid.New[T](hdr.Nz, hdr.Ny, hdr.Nx)
	pos := 0
	for pos < len(out.Data) {
		n, err := sr.Read(out.Data[pos:])
		pos += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if pos != len(out.Data) {
		return nil, fmt.Errorf("%w: short stream: %d of %d values", ErrFormat, pos, len(out.Data))
	}
	return out, nil
}

// DecodeFrom is the streaming equivalent of Decode: it reconstructs the
// full grid from r with bounded in-flight memory.
func DecodeFrom[T grid.Float](r io.Reader, workers int) (*grid.Grid[T], error) {
	sr, err := NewReader[T](r)
	if err != nil {
		return nil, err
	}
	sr.Workers = workers
	return sr.ReadGrid()
}

// EncodeTo is the streaming equivalent of Encode for a grid that is
// already in memory: it produces identical bytes while compressing through
// the bounded-window writer. Relative bounds are resolved against g first,
// exactly as Encode does.
func EncodeTo[T grid.Float](w io.Writer, name string, g *grid.Grid[T], cfg Config) error {
	ebRequested, mode := cfg.EB, cfg.Mode
	if cfg.Mode == ModeRel {
		mn, mx := g.Range()
		cfg = cfg.Resolve(float64(mn), float64(mx))
		if err := cfg.validate(); err != nil {
			return fmt.Errorf("codec: relative bound resolves to %g on range [%g, %g]",
				cfg.EB, mn, mx)
		}
	}
	sw, err := NewWriter[T](w, name, g.Nz, g.Ny, g.Nx, cfg)
	if err != nil {
		return err
	}
	if mode == ModeRel {
		if err := sw.SetRequestedBound(ebRequested, mode); err != nil {
			return err
		}
	}
	if err := sw.Write(g.Data); err != nil {
		return err
	}
	return sw.Close()
}
