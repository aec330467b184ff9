package codec

import (
	"fmt"
	"io"

	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/rawio"
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
// through Write or ReadFrom, complete z-slabs accumulate up to a window of
// max(1, Workers) slabs and are then compressed as one parallel batch on
// the worker pool, and Close frames the compressed sections into the
// container. The emitted bytes are identical to Encode on the same grid and
// configuration, so streamed archives are indistinguishable from buffered
// ones.
//
// Raw-side memory is bounded by the window; the compressed sections are
// retained until Close because the container directory precedes the
// payloads. The bound must be absolute (resolve relative bounds against
// the data range first, see Config.Resolve); the pre-resolution bound can
// be recorded in the header with SetRequestedBound for byte compatibility
// with relative-mode Encode.
type Writer[T grid.Float] struct {
	w      io.Writer
	c      Codec
	cfg    Config // absolute-mode, as used for per-chunk compression
	hdr    Header
	plane  int
	window int // complete slabs buffered before a compression batch

	chunk      int // index of the chunk currently being filled
	slab       []T // lease for that chunk (nil until its first value)
	slabLen    int
	batch      [][]T // complete slabs awaiting compression
	batchFirst int   // chunk index of batch[0]
	blobs      [][]byte

	closed bool
	err    error
}

// NewWriter returns a streaming encoder that writes the unified encoded
// form of an (nz, ny, nx) grid of T compressed by the named codec to w.
// cfg is interpreted exactly as by Encode, except that relative bounds are
// rejected: a streaming encoder cannot see the full value range in
// advance, so the caller must resolve the bound first.
func NewWriter[T grid.Float](w io.Writer, name string, nz, ny, nx int, cfg Config) (*Writer[T], error) {
	if cfg.Mode == ModeRel {
		return nil, fmt.Errorf("codec: streaming writer requires an absolute bound; resolve the relative bound first (Config.Resolve) and record it with SetRequestedBound")
	}
	c, hdr, err := newHeader[T](name, nz, ny, nx, cfg)
	if err != nil {
		return nil, err
	}
	window := max(1, cfg.Workers)
	return &Writer[T]{
		w: w, c: c, cfg: cfg, hdr: hdr, plane: ny * nx, window: window,
		batch: make([][]T, 0, window),
		blobs: make([][]byte, 0, hdr.Chunks()),
	}, nil
}

// SetRequestedBound records the pre-resolution error bound and mode in the
// stream header, matching what Encode writes for relative-mode configs.
// It must be called before the first Write.
func (sw *Writer[T]) SetRequestedBound(eb float64, mode ErrorMode) error {
	if sw.chunk > 0 || sw.slab != nil || sw.closed {
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
// triggers a parallel compression batch whenever a window of slabs is
// full.
func (sw *Writer[T]) Write(vals []T) error {
	for len(vals) > 0 {
		dst, err := sw.space()
		if err != nil {
			return err
		}
		n := copy(dst, vals)
		vals = vals[n:]
		if err := sw.commit(n); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrom reads the rest of the grid from r as little-endian values,
// decoding them straight into the writer's slab leases (io.ReaderFrom).
// r must end exactly at the grid's last value: a short body, one that ends
// inside a value and one with bytes past the grid all fail, wrapping r's
// own error when r reports one, and leave the writer failed, so Close
// writes nothing. It returns the bytes consumed.
func (sw *Writer[T]) ReadFrom(r io.Reader) (int64, error) {
	if err := sw.check(); err != nil {
		return 0, err
	}
	vr := rawio.NewReader[T](r)
	elem := int64(sw.hdr.DType)
	var total int64
	for sw.chunk < sw.hdr.Chunks() {
		dst, err := sw.space()
		if err != nil {
			return total, err
		}
		n, err := vr.Read(dst)
		total += int64(n) * elem
		if cerr := sw.commit(n); cerr != nil {
			return total, cerr
		}
		if err == io.EOF {
			sw.err = fmt.Errorf("codec: short input: %d of %d values", sw.written(), sw.hdr.Nz*sw.plane)
			return total, sw.err
		}
		if err != nil {
			sw.err = fmt.Errorf("codec: reading values: %w", err)
			return total, sw.err
		}
	}
	var probe [1]byte
	switch n, err := io.ReadFull(r, probe[:]); {
	case n > 0:
		sw.err = fmt.Errorf("codec: input longer than the %d×%d×%d grid", sw.hdr.Nz, sw.hdr.Ny, sw.hdr.Nx)
	case err != io.EOF:
		sw.err = fmt.Errorf("codec: reading values: %w", err)
	default:
		return total, nil
	}
	return total, sw.err
}

// space returns the unfilled rest of the current chunk's slab, leasing it
// on the chunk's first value.
func (sw *Writer[T]) space() ([]T, error) {
	if err := sw.check(); err != nil {
		return nil, err
	}
	if sw.chunk >= sw.hdr.Chunks() {
		sw.err = fmt.Errorf("codec: more than %d values written to %d×%d×%d stream",
			sw.hdr.Nz*sw.plane, sw.hdr.Nz, sw.hdr.Ny, sw.hdr.Nx)
		return nil, sw.err
	}
	if sw.slab == nil {
		// Slabs are scratch leases: filled completely before compression
		// and released as soon as their compressed section exists.
		depth := sw.hdr.ChunkBounds[sw.chunk+1] - sw.hdr.ChunkBounds[sw.chunk]
		sw.slab = scratch.LeaseFloat[T](depth * sw.plane)
		sw.slabLen = 0
	}
	return sw.slab[sw.slabLen:], nil
}

// check reports why the writer takes no more values, if it does not.
func (sw *Writer[T]) check() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return fmt.Errorf("codec: write on closed Writer")
	}
	return nil
}

// commit counts n more values written into space's slice; a complete slab
// joins the batch, and a full window is compressed.
func (sw *Writer[T]) commit(n int) error {
	sw.slabLen += n
	if sw.slabLen < len(sw.slab) {
		return nil
	}
	if len(sw.batch) == 0 {
		sw.batchFirst = sw.chunk
	}
	sw.batch = append(sw.batch, sw.slab)
	sw.slab, sw.slabLen = nil, 0
	sw.chunk++
	if len(sw.batch) < sw.window {
		return nil
	}
	return sw.flush()
}

// written is the number of values the writer has taken.
func (sw *Writer[T]) written() int {
	return sw.hdr.ChunkBounds[sw.chunk]*sw.plane + sw.slabLen
}

// flush compresses the buffered batch of complete slabs in parallel and
// retains the compressed sections for Close.
func (sw *Writer[T]) flush() error {
	if len(sw.batch) == 0 {
		return nil
	}
	blobs, err := encodeChunks(sw.c, sw.hdr, sw.cfg, sw.batchFirst, sw.batch)
	for i := range sw.batch {
		scratch.ReleaseFloat(sw.batch[i])
		sw.batch[i] = nil
	}
	sw.batch = sw.batch[:0]
	if err != nil {
		sw.err = err
		return err
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
	if sw.chunk < sw.hdr.Chunks() {
		sw.err = fmt.Errorf("codec: short stream: %d of %d values written",
			sw.written(), sw.hdr.Nz*sw.plane)
		return sw.err
	}
	if err := sw.flush(); err != nil {
		return err
	}
	if _, err := sw.hdr.frame(sw.blobs).WriteTo(sw.w); err != nil {
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
	if hlen > maxStreamHeaderLen {
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
// decompressed in parallel batches of up to max(2, Workers) slabs, and
// served to the consumer in row-major order through Read or WriteTo.
type Reader[T grid.Float] struct {
	// Workers bounds the decompression parallelism (across slabs in a
	// batch, with any surplus handed to backend-internal modes).
	Workers int

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
	if int(s.hdr.DType) != rawio.ElemSize[T]() {
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
	total := 0
	for len(dst) > 0 {
		vals, err := sr.next()
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		n := copy(dst, vals)
		sr.consume(n)
		dst = dst[n:]
		total += n
	}
	return total, nil
}

// WriteTo writes the rest of the grid to w as little-endian values, one
// decoded slab at a time, releasing each slab once it is written
// (io.WriterTo). It returns the bytes written.
func (sr *Reader[T]) WriteTo(w io.Writer) (int64, error) {
	hdr := sr.s.hdr
	vw := rawio.NewWriter[T](w)
	var total int64
	for {
		vals, err := sr.next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		if err := vw.Write(vals); err != nil {
			return total, err
		}
		total += int64(len(vals)) * int64(hdr.DType)
		sr.consume(len(vals))
	}
}

// next returns the unserved values of the current slab, decoding the next
// window once every resident slab is served; io.EOF follows the last.
func (sr *Reader[T]) next() ([]T, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.head == len(sr.ready) {
		if sr.chunk >= sr.s.hdr.Chunks() {
			return nil, io.EOF
		}
		if err := sr.fill(); err != nil {
			sr.err = err
			return nil, err
		}
	}
	return sr.ready[sr.head].Data[sr.cur:], nil
}

// consume marks n more values of the current slab served. A fully served
// slab's backing array is recycled, so the next decode batch leases it
// instead of allocating.
func (sr *Reader[T]) consume(n int) {
	sr.cur += n
	if head := sr.ready[sr.head]; sr.cur == len(head.Data) {
		scratch.ReleaseFloat(head.Data)
		sr.ready[sr.head] = nil
		sr.head++
		sr.cur = 0
	}
}

// fill reads and decompresses the next window of slab sections.
func (sr *Reader[T]) fill() error {
	hdr := sr.s.hdr
	batchN := min(hdr.Chunks()-sr.chunk, max(2, sr.Workers))
	// Compressed section buffers are scratch leases, released as soon as
	// their slab is decoded (no backend retains its input).
	secs := make([][]byte, batchN)
	for i := 0; i < batchN; i++ {
		ci := sr.chunk + i
		l := sr.s.dir.SectionLen(ci + 1)
		raw := int64(hdr.ChunkBounds[ci+1]-hdr.ChunkBounds[ci]) *
			int64(hdr.Ny) * int64(hdr.Nx) * int64(hdr.DType)
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
		slabs[i], errs[i] = decodeChunk[T](sr.c, hdr, first+i, secs[i], inner)
		scratch.Bytes.Release(secs[i])
		secs[i] = nil
	})
	for _, e := range errs {
		if e != nil {
			return e
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
