package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// Header is the public view of an STZ stream's metadata.
type Header struct {
	DType      byte // 4 = float32, 8 = float64
	Fz, Fy, Fx int
	Levels     int
	Predictor  Predictor
	AdaptiveEB bool
	EBRatio    float64
	EB         float64
	Radius     int32
	// BaseCodec is the registry name of the base-level codec ("sz3"
	// unless Config.BaseCodec overrode it).
	BaseCodec string
}

// Stats is the per-stage timing breakdown of a decompression, matching the
// stage taxonomy of the paper's Table 4: level-1 SZ3 decode, then per
// predicted level the entropy-decode (dec.), prediction+dequantization
// (pre.) and reassembly (rec.) stages, plus class-stream decode accounting.
// The level-1 decode, the entropy decodes of every level and the
// allocation of the requested level's caller-owned grids run in one
// concurrent phase, so L1SZ3, each LevelDecode[p] and the requested level's
// LevelRecon, timed each over its own tasks, may overlap one another; Total
// stays the call's wall time. The class accounting is fixed by the regions'
// geometry, whatever order the decodes ran in. The level sweep copies the
// coarse lattice through while it predicts, so LevelPredict covers the
// whole sweep and LevelRecon only the level's allocation (the requested
// level, in the decode phase) or scratch lease (a level below it, just
// before its sweep).
type Stats struct {
	L1SZ3          time.Duration
	LevelDecode    [3]time.Duration // index 0 = paper level 2, up to level 4
	LevelPredict   [3]time.Duration
	LevelRecon     [3]time.Duration
	DecodedClasses [3]int
	SkippedClasses [3]int
	// Accounting of the independently decodable parts of the touched class
	// streams (random-access Huffman decoding): the bricks of a version-4
	// stream, the chunks of a chunked version-1–3 one.
	DecodedChunks [3]int
	SkippedChunks [3]int
	// Symbol accounting: of the TotalSymbols class codes a level stores
	// (all 7 classes, touched or not), DecodedSymbols went through the
	// entropy decoder — the timing-free measure of what a box paid for.
	DecodedSymbols [3]int
	TotalSymbols   [3]int
	Total          time.Duration
}

// Reader decodes STZ streams. The type parameter must match the stream's
// element type. Workers > 1 decodes the per-class streams in parallel.
type Reader[T grid.Float] struct {
	Workers int

	arc  *container.Archive
	hdr  header
	base codec.Codec
}

// openArchive parses the stream framing and validates the header.
func openArchive(data []byte) (*container.Archive, header, error) {
	arc, err := container.Open(data)
	if err != nil {
		return nil, header{}, err
	}
	if arc.Count() < 2 {
		return nil, header{}, fmt.Errorf("core: stream has no payload sections")
	}
	hsec, err := arc.Section(0)
	if err != nil {
		return nil, header{}, err
	}
	hdr, err := unmarshalHeader(hsec)
	return arc, hdr, err
}

// NewReader parses and validates the stream framing and header.
func NewReader[T grid.Float](data []byte) (*Reader[T], error) {
	arc, hdr, err := openArchive(data)
	if err != nil {
		return nil, err
	}
	if hdr.DType != dtypeOf[T]() {
		return nil, fmt.Errorf("core: stream element type mismatch")
	}
	if wantSecs := 2 + (hdr.Levels-1)*7; arc.Count() != wantSecs {
		return nil, fmt.Errorf("core: want %d sections, have %d", wantSecs, arc.Count())
	}
	base, err := codec.LookupID(hdr.BaseID)
	if err != nil {
		return nil, fmt.Errorf("core: base codec: %w", err)
	}
	return &Reader[T]{Workers: 1, arc: arc, hdr: hdr, base: base}, nil
}

// Header returns the stream metadata.
func (r *Reader[T]) Header() Header {
	h := r.hdr
	return Header{
		DType: h.DType, Fz: h.Fz, Fy: h.Fy, Fx: h.Fx, Levels: h.Levels,
		Predictor: h.Predictor, AdaptiveEB: h.AdaptiveEB,
		EBRatio: h.EBRatio, EB: h.EB, Radius: h.Radius, BaseCodec: r.base.Name(),
	}
}

func (r *Reader[T]) workers() int {
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// chainDims returns the dims of each coarse-chain grid: index 0 is the full
// grid, index t is parity class 0 of index t−1.
func (r *Reader[T]) chainDims() [][3]int {
	out := make([][3]int, r.hdr.Levels)
	out[0] = [3]int{r.hdr.Fz, r.hdr.Fy, r.hdr.Fx}
	for t := 1; t < r.hdr.Levels; t++ {
		p := out[t-1]
		out[t] = [3]int{grid.SubDim(p[0], 0, 2), grid.SubDim(p[1], 0, 2), grid.SubDim(p[2], 0, 2)}
	}
	return out
}

// classSection returns the section index of predicted-level p (0 = paper
// level 2) and class c (0..6).
func (r *Reader[T]) classSection(p, c int) int { return 2 + p*7 + c }

// levelEB mirrors Config.levelEB for the stored header.
func (r *Reader[T]) levelEB(lv int) float64 {
	if !r.hdr.AdaptiveEB {
		return r.hdr.EB
	}
	eb := r.hdr.EB
	for i := lv; i < r.hdr.Levels; i++ {
		eb /= r.hdr.EBRatio
	}
	return eb
}

// decodedClass is one predicted class's decoded payload. codes, esc and
// outliers are scratch-arena leases owned by the class; callers release
// them (via release) once reconstruction no longer reads them.
//
// codes hold the class points of box, row-major: in a version-4 class the
// union of its views' class boxes, with each escape's value at its code's
// index in esc (nil when the class has no escapes); in an older class the
// whole class grid, its escapes' values in outliers, which an
// outlierCursor resolves.
type decodedClass[T grid.Float] struct {
	codes          []uint16
	box            grid.Box
	esc            []T
	outliers       []T
	decodedSymbols int // class codes that went through the entropy decoder
	// Escape index: the escapes before each chunkSize codes — per chunk as a
	// chunked stream stores them, per class plane as indexEscapes counts
	// them for an unchunked class with outliers.
	chunkSize     int
	bases         []uint32
	decodedChunks int
	totalChunks   int
}

// release returns the leased decode buffers to the scratch arenas. Safe on
// the zero value and after a partial decode.
func (dc *decodedClass[T]) release() {
	scratch.U16.Release(dc.codes)
	scratch.ReleaseFloat(dc.esc)
	scratch.ReleaseFloat(dc.outliers)
	dc.codes, dc.esc, dc.outliers = nil, nil, nil
}

// at is the index in codes of the class point (k, j, x) of box.
func (dc *decodedClass[T]) at(k, j, x int) int {
	b := &dc.box
	return ((k-b.Z0)*(b.Y1-b.Y0)+j-b.Y0)*(b.X1-b.X0) + x - b.X0
}

// decodeBricks entropy-decodes into dc the listed bricks (ascending) of
// version-4 class section sec — class c (1..7, for messages) of brick grid
// bs, want codes in all — as the codes of box, the union of the views'
// class boxes. The section is a laned section (huffman.OpenSection) behind
// the class's escape count, its escape values inline in brick order.
func (r *Reader[T]) decodeBricks(dc *decodedClass[T], sec []byte, c int, q quant.Quantizer, bs bricks, box grid.Box, list []int32, want int) error {
	*dc = decodedClass[T]{box: box, totalChunks: bs.count()}
	if len(sec) < 4 {
		return fmt.Errorf("core: class %d: %w", c, huffman.ErrLaneDir)
	}
	sizes := make([]int, bs.count())
	for b := range sizes {
		sizes[b] = bs.box(b).Volume()
	}
	nOut, elem := int(binary.LittleEndian.Uint32(sec)), rawio.ElemSize[T]()
	ls, err := huffman.OpenSection(sec[4:], q.Alphabet(), sizes, nOut, nOut*elem)
	if err != nil {
		return fmt.Errorf("core: class %d: %w", c, err)
	}
	defer ls.Release()
	dc.codes = scratch.U16.Lease(box.Volume())
	if nOut > 0 {
		dc.esc = scratch.LeaseFloat[T](box.Volume())
	}
	vals := ls.Inline()
	// Each brick is placed from the stage its pair decoded into.
	err = ls.Decode(list, nil, 1, func(lc huffman.LaneCodes) {
		dc.place(bs.box(lc.Lane), lc.Codes, vals[lc.Esc*elem:], lc.Escs)
	})
	if err != nil {
		dc.release()
		return fmt.Errorf("core: class %d: %w", c, err)
	}
	dc.decodedSymbols, dc.decodedChunks = want, len(list)
	return nil
}

// place copies the decoded brick bb — its codes in brick-local row-major
// order — into the codes of the box they share, and gives each of the
// brick's n escapes there its value: they are the first n values of vals,
// in brick order.
func (dc *decodedClass[T]) place(bb grid.Box, codes []uint16, vals []byte, n int) {
	b := dc.box
	in := grid.Box{
		Z0: max(bb.Z0, b.Z0), Y0: max(bb.Y0, b.Y0), X0: max(bb.X0, b.X0),
		Z1: min(bb.Z1, b.Z1), Y1: min(bb.Y1, b.Y1), X1: min(bb.X1, b.X1),
	}
	h, w := bb.Y1-bb.Y0, bb.X1-bb.X0
	if !in.Empty() {
		// Row by row, both cursors stepping; a whole brick row is one
		// fixed-size move.
		bx, by, row := b.X1-b.X0, b.Y1-b.Y0, in.X1-in.X0
		dst, src := dc.at(in.Z0, in.Y0, in.X0), ((in.Z0-bb.Z0)*h+in.Y0-bb.Y0)*w+in.X0-bb.X0
		for k := in.Z0; k < in.Z1; k++ {
			d, s := dst, src
			for j := in.Y0; j < in.Y1; j++ {
				if row == brickX {
					*(*[brickX]uint16)(dc.codes[d:]) = *(*[brickX]uint16)(codes[s:])
				} else {
					copy(dc.codes[d:d+row], codes[s:s+row])
				}
				d += bx
				s += w
			}
			dst += bx * by
			src += h * w
		}
	}
	if n == 0 {
		return
	}
	// The section's Decode checked that the brick holds n zero codes.
	e := 0
	for t, code := range codes {
		if code != 0 {
			continue
		}
		if k, j, x := bb.Z0+t/(h*w), bb.Y0+t/w%h, bb.X0+t%w; in.Contains(k, j, x) {
			rawio.GetValues(dc.esc[dc.at(k, j, x):][:1], vals[e*rawio.ElemSize[T]():])
		}
		e++
	}
}

// decodeCodes entropy-decodes the codes [lo, hi) of one class code blob
// according to the stream's format version and reports how many symbols it
// decoded: v3 streams carry multi-lane Huffman payloads, whose lane
// directory lets the decoder skip the lanes outside the range; the v1/v2
// single-stream layout decodes whole. The lanes decode on the calling
// goroutine — the seven parity classes already occupy the reader's worker
// pool.
func (r *Reader[T]) decodeCodes(dst []uint16, blob []byte, alphabet, lo, hi int) ([]uint16, int, error) {
	if r.hdr.Version >= 3 {
		return huffman.DecodeLanesRange(dst, blob, alphabet, lo, hi)
	}
	codes, err := huffman.DecodeInto(dst, blob, alphabet)
	return codes, len(codes), err
}

// decodeClass entropy-decodes the version-1–3 class stream of predicted
// level p, class c. n is the class size in points; only codes within
// [ciLo, ciHi) are guaranteed decoded: a multi-lane stream decodes the lane
// prefixes the range touches (huffman.DecodeLanesRange), and a chunked
// stream (header CodeChunk > 0) skips the chunks entirely outside the range.
func (r *Reader[T]) decodeClass(p, c int, q quant.Quantizer, n, ciLo, ciHi int) (decodedClass[T], error) {
	sec, err := r.arc.Section(r.classSection(p, c))
	if err != nil {
		return decodedClass[T]{}, err
	}
	if len(sec) < 4 {
		return decodedClass[T]{}, fmt.Errorf("core: class %d section truncated", c)
	}
	nOut := int(binary.LittleEndian.Uint32(sec))
	elem := 8
	if r.hdr.DType == 4 {
		elem = 4
	}
	if 4+nOut*elem > len(sec) {
		return decodedClass[T]{}, fmt.Errorf("core: class %d outliers truncated", c)
	}
	outliers := scratch.LeaseFloat[T](nOut)
	if err := readValues(outliers, sec[4:]); err != nil {
		scratch.ReleaseFloat(outliers)
		return decodedClass[T]{}, err
	}
	rest := sec[4+nOut*elem:]

	if r.hdr.CodeChunk <= 0 {
		if nOut > 0 {
			// outlierCursor counts every escape before the region, so a
			// class with outliers decodes from its first code.
			ciLo = 0
		}
		codesBuf := scratch.U16.Lease(n)
		codes, decoded, err := r.decodeCodes(codesBuf[:0], rest, q.Alphabet(), ciLo, ciHi)
		if err != nil {
			scratch.U16.Release(codesBuf)
			scratch.ReleaseFloat(outliers)
			return decodedClass[T]{}, fmt.Errorf("core: class %d codes: %w", c, err)
		}
		if cap(codes) != cap(codesBuf) {
			// The decoder outgrew the lease (corrupt count); hand the lease
			// back and keep the allocated slice.
			scratch.U16.Release(codesBuf)
		}
		return decodedClass[T]{codes: codes, outliers: outliers, decodedSymbols: decoded}, nil
	}

	// Chunked codes: decode only the chunks intersecting [ciLo, ciHi).
	cs := r.hdr.CodeChunk
	if len(rest) < 4 {
		scratch.ReleaseFloat(outliers)
		return decodedClass[T]{}, fmt.Errorf("core: class %d chunk directory truncated", c)
	}
	// fail releases the partially assembled leases on any decode error.
	dc := decodedClass[T]{outliers: outliers, chunkSize: cs}
	fail := func(format string, args ...any) (decodedClass[T], error) {
		dc.release()
		return decodedClass[T]{}, fmt.Errorf(format, args...)
	}
	nChunks := int(binary.LittleEndian.Uint32(rest))
	wantChunks := (n + cs - 1) / cs
	if n == 0 {
		wantChunks = 0
	}
	if nChunks != wantChunks {
		return fail("core: class %d chunk count %d, want %d", c, nChunks, wantChunks)
	}
	dir := rest[4:]
	if len(dir) < 8*nChunks {
		return fail("core: class %d chunk directory truncated", c)
	}
	lens := make([]int, nChunks)
	bases := make([]uint32, nChunks)
	for i := 0; i < nChunks; i++ {
		lens[i] = int(binary.LittleEndian.Uint32(dir[8*i:]))
		bases[i] = binary.LittleEndian.Uint32(dir[8*i+4:])
	}
	payload := dir[8*nChunks:]
	offs := make([]int, nChunks+1)
	for i, l := range lens {
		if l < 0 {
			return fail("core: class %d bad chunk length", c)
		}
		offs[i+1] = offs[i] + l
	}
	if offs[nChunks] > len(payload) {
		return fail("core: class %d chunk payload truncated", c)
	}
	// Skipped (out-of-range) chunks stay unwritten: reconstruction reads only
	// codes inside [ciLo, ciHi), and outlierCursor resynchronizes at chunk
	// bases instead of scanning across them.
	dc.codes = scratch.U16.Lease(n)
	dc.bases, dc.totalChunks = bases, nChunks
	// cs comes from the untrusted header; a chunk never holds more than n
	// codes, so cap the staging lease to keep a crafted CodeChunk from
	// forcing a huge allocation.
	chunkBuf := scratch.U16.Lease(min(cs, n))
	defer scratch.U16.Release(chunkBuf)
	for i := 0; i < nChunks; i++ {
		lo, hi := i*cs, (i+1)*cs
		if hi > n {
			hi = n
		}
		if hi <= ciLo || lo >= ciHi {
			continue
		}
		part, _, err := r.decodeCodes(chunkBuf[:0], payload[offs[i]:offs[i+1]], q.Alphabet(), 0, hi-lo)
		if err != nil {
			return fail("core: class %d chunk %d: %w", c, i, err)
		}
		if len(part) != hi-lo {
			return fail("core: class %d chunk %d size mismatch", c, i)
		}
		copy(dc.codes[lo:hi], part)
		dc.decodedChunks++
		dc.decodedSymbols += hi - lo
	}
	return dc, nil
}

// outlierCursor resolves the outlier-array index for escape codes during a
// monotone (row-major) walk over class indices. With chunked code streams
// it resynchronizes at chunk boundaries from the per-chunk outlier bases,
// so skipped (un-decoded) chunks never have to be scanned.
type outlierCursor struct {
	codes     []uint16
	pos       int
	zeros     int
	chunkSize int
	bases     []uint32
	curChunk  int
}

func newOutlierCursor[T grid.Float](dc decodedClass[T]) outlierCursor {
	return outlierCursor{
		codes: dc.codes, chunkSize: dc.chunkSize, bases: dc.bases, curChunk: -1,
	}
}

// take returns the outlier index for the escape at class index ci, which
// must be ≥ any previously passed index.
func (o *outlierCursor) take(ci int) int {
	if o.chunkSize > 0 {
		if c := ci / o.chunkSize; c != o.curChunk {
			o.curChunk = c
			o.pos = c * o.chunkSize
			o.zeros = int(o.bases[c])
		}
	}
	for o.pos < ci {
		if o.codes[o.pos] == 0 {
			o.zeros++
		}
		o.pos++
	}
	idx := o.zeros
	o.zeros++ // the escape at ci itself
	o.pos = ci + 1
	return idx
}

var errOutliersExhausted = errors.New("core: outlier stream exhausted")

// escapes is where dequantRow finds the value of the escape at index i of
// a class's decoded codes: a version-4 class holds it at vals[i]; an older
// one in outliers, at the index oc resolves for class index i. With
// neither, there is none.
type escapes[T grid.Float] struct {
	vals     []T
	oc       *outlierCursor
	outliers []T
}

// dequantRow reconstructs one class row into its fine row: the class point
// of code codes[t] — index at+t of the class's decoded codes — and
// prediction preds[t] goes to dst[2t]. A non-zero code dequantises against
// the prediction; an escape takes its value from es. When es has no value
// for it, it stops with an error, leaving that point and the rest of the
// row unwritten.
func dequantRow[T grid.Float](dst []T, codes []uint16, preds []T, bin float64, radius int32, es *escapes[T], at int) error {
	preds = preds[:len(codes)]
	for t, code := range codes {
		if code == 0 {
			v, ok := es.at(at + t)
			if !ok {
				return errOutliersExhausted
			}
			dst[2*t] = v
			continue
		}
		dst[2*t] = T(float64(preds[t]) + bin*float64(int32(code)-radius))
	}
	return nil
}

// at is dequantRow's escape path, out of its loop: the value of the escape
// at index i, or false when there is no such value.
func (es *escapes[T]) at(i int) (T, bool) {
	if es.vals != nil {
		return es.vals[i], true
	}
	if es.oc == nil {
		return 0, false
	}
	if oi := es.oc.take(i); oi < len(es.outliers) {
		return es.outliers[oi], true
	}
	return 0, false
}

// view is one grid of a reconstruction: the region b of a level's grid,
// stored in g, whose element (0,0,0) is the grid point o. Every view is sized
// to its region: a requested region in a caller-owned grid, an intermediate
// level's need[t] in a scratch lease, the level-1 base in what the base codec
// returned — need-sized after a cone decode, the whole level otherwise.
type view[T grid.Float] struct {
	g *grid.Grid[T]
	o grid.Offset3
	b grid.Box
}

// regionView is the view of region b, before its grid is allocated.
func regionView[T grid.Float](b grid.Box) view[T] {
	return view[T]{o: grid.Offset3{Z: b.Z0, Y: b.Y0, X: b.X0}, b: b}
}

// idx returns the index in v.g.Data of the level's grid point (z, y, x).
func (v view[T]) idx(z, y, x int) int {
	return ((z-v.o.Z)*v.g.Ny+y-v.o.Y)*v.g.Nx + x - v.o.X
}

// extract copies the region b of the level, inside v.b, into a new grid.
func (v view[T]) extract(b grid.Box) *grid.Grid[T] {
	return v.g.ExtractBox(grid.Box{Z0: b.Z0 - v.o.Z, Y0: b.Y0 - v.o.Y, X0: b.X0 - v.o.X,
		Z1: b.Z1 - v.o.Z, Y1: b.Y1 - v.o.Y, X1: b.X1 - v.o.X})
}

var errL1Dims = errors.New("core: level-1 dims mismatch")

// checkBaseDims refuses a level-1 payload whose own dims are not the
// header's level-1 dims, read without decoding (every registered base is a
// codec.DimsReader): before the decode phase sizes class streams and output
// grids from the header's dims, and before a box decode, whose result has
// the box's dims. decodeBase checks the decoded grid of a base that could
// not say.
func (r *Reader[T]) checkBaseDims() error {
	bd, ok := r.base.(codec.DimsReader)
	if !ok {
		return nil
	}
	sec, err := r.arc.Section(1)
	if err != nil {
		return err
	}
	nz, ny, nx, err := bd.Dims(sec)
	if err != nil {
		return fmt.Errorf("core: level 1: %w", err)
	}
	if [3]int{nz, ny, nx} != r.chainDims()[r.hdr.Levels-1] {
		return errL1Dims
	}
	return nil
}

// decodeBase decodes the level-1 grid (paper level 1, section 1) for its
// part need: through a base codec that decodes boxes natively, only need's
// cone, into a grid of need's dims; otherwise, or when need is the whole
// level, the whole grid.
func (r *Reader[T]) decodeBase(need grid.Box) (view[T], error) {
	sec, err := r.arc.Section(1)
	if err != nil {
		return view[T]{}, err
	}
	d := r.chainDims()[r.hdr.Levels-1]
	whole := grid.Box{Z1: d[0], Y1: d[1], X1: d[2]}
	if bd, ok := r.base.(codec.BoxDecoder); ok && need != whole {
		g, err := codec.DecompressBox[T](bd, sec, need, 1)
		if err != nil {
			return view[T]{}, fmt.Errorf("core: level 1: %w", err)
		}
		v := regionView[T](need)
		v.g = g
		return v, nil
	}
	g, err := codec.Decompress[T](r.base, sec, 1)
	if err != nil {
		return view[T]{}, fmt.Errorf("core: level 1: %w", err)
	}
	if [3]int{g.Nz, g.Ny, g.Nx} != d {
		scratch.ReleaseFloat(g.Data)
		return view[T]{}, errL1Dims
	}
	return view[T]{g: g, b: whole}, nil
}

// indexEscapes gives an unchunked class with outliers the random-access
// index a chunked one stores: one counting pass over the decoded codes
// (everything below class index hi) records the escapes before each class
// plane of planeLen points, so an outlierCursor starting anywhere
// resynchronises at its plane instead of scanning from code 0.
func (dc *decodedClass[T]) indexEscapes(planeLen, hi int) {
	if dc.chunkSize > 0 || len(dc.outliers) == 0 || planeLen == 0 {
		return
	}
	bases := make([]uint32, (hi+planeLen-1)/planeLen)
	var zeros uint32
	for k := range bases {
		bases[k] = zeros
		if k+1 < len(bases) {
			for _, code := range dc.codes[k*planeLen : (k+1)*planeLen] {
				if code == 0 {
					zeros++
				}
			}
		}
	}
	dc.chunkSize, dc.bases = planeLen, bases
}

// levelPlan is one predicted level of a reconstruction, fixed before
// anything is decoded — the views it rebuilds, each view's share of every
// class (sub[i][c], in class coordinates) and per class the span [lo, hi) of
// row-major class indices the views touch, its index hull, and in a
// version-4 stream the bricks they touch — and the class streams the
// decode phase produces for it.
type levelPlan[T grid.Float] struct {
	p      int // 0 = paper level 2
	lv     *level[T]
	q      quant.Quantizer
	views  []view[T]
	sub    [][8]grid.Box
	lo, hi [8]int
	// Version 4: per class, the union of the views' class boxes, the bricks
	// they touch, in brick order, and the codes those bricks hold.
	box    [8]grid.Box
	bricks [8][]int32
	want   [8]int
	dcs    [8]decodedClass[T]
	errs   [8]error
}

// planLevel plans predicted level p, of fine dims fdims, for views.
func (r *Reader[T]) planLevel(p int, fdims [3]int, views []view[T]) levelPlan[T] {
	pl := levelPlan[T]{
		p: p, lv: newLevel[T](fdims[0], fdims[1], fdims[2]),
		q:     quant.Quantizer{EB: r.levelEB(p + 2), Radius: r.hdr.Radius},
		views: views, sub: make([][8]grid.Box, len(views)),
	}
	for i, v := range views {
		pl.sub[i] = pl.lv.subBoxes(v.b)
	}
	for c := 1; c < 8; c++ {
		d := pl.lv.dims[c]
		pl.lo[c] = pl.lv.classLen(c)
		for i := range views {
			if sb := pl.sub[i][c]; !sb.Empty() {
				pl.lo[c] = min(pl.lo[c], (sb.Z0*d[1]+sb.Y0)*d[2]+sb.X0)
				pl.hi[c] = max(pl.hi[c], ((sb.Z1-1)*d[1]+sb.Y1-1)*d[2]+sb.X1)
			}
		}
		if r.hdr.Version >= 4 && pl.touched(c) {
			pl.planBricks(c)
		}
	}
	return pl
}

// planBricks fixes the union of the views' boxes of class c and lists the
// bricks they touch, in brick order.
func (pl *levelPlan[T]) planBricks(c int) {
	bs := newBricks(pl.lv.dims[c])
	marked := make([]bool, bs.count())
	for i := range pl.views {
		pl.box[c] = pl.box[c].Union(pl.sub[i][c])
		bs.mark(pl.sub[i][c], marked)
	}
	for b, m := range marked {
		if m {
			pl.bricks[c] = append(pl.bricks[c], int32(b))
			pl.want[c] += bs.box(b).Volume()
		}
	}
}

// touched reports whether some view has a point of class c.
func (pl *levelPlan[T]) touched(c int) bool { return pl.lo[c] < pl.hi[c] }

// decode is the decode-phase task of class c: entropy-decode its hull and
// check what came back against the plan.
func (pl *levelPlan[T]) decode(r *Reader[T], c int) {
	d, n := pl.lv.dims[c], pl.lv.classLen(c)
	dc := &pl.dcs[c]
	if pl.bricks[c] != nil {
		sec, err := r.arc.Section(r.classSection(pl.p, c-1))
		if err != nil {
			pl.errs[c] = err
			return
		}
		pl.errs[c] = r.decodeBricks(dc, sec, c, pl.q, newBricks(d), pl.box[c], pl.bricks[c], pl.want[c])
		return
	}
	if *dc, pl.errs[c] = r.decodeClass(pl.p, c-1, pl.q, n, pl.lo[c], pl.hi[c]); pl.errs[c] != nil {
		return
	}
	dc.box = grid.Box{Z1: d[0], Y1: d[1], X1: d[2]}
	if len(dc.codes) != n {
		pl.errs[c] = fmt.Errorf("core: class code count %d, want %d", len(dc.codes), n)
	} else {
		dc.indexEscapes(d[1]*d[2], pl.hi[c])
	}
}

// account adds the level's class-stream accounting to st — what the plan
// decided, whatever order the decodes ran in — and returns the first class
// error.
func (pl *levelPlan[T]) account(st *Stats) error {
	p := pl.p
	var err error
	for c := 1; c < 8; c++ {
		st.TotalSymbols[p] += pl.lv.classLen(c)
		if !pl.touched(c) {
			st.SkippedClasses[p]++
			continue
		}
		dc := &pl.dcs[c]
		st.DecodedClasses[p]++
		st.DecodedSymbols[p] += dc.decodedSymbols
		st.DecodedChunks[p] += dc.decodedChunks
		st.SkippedChunks[p] += dc.totalChunks - dc.decodedChunks
		if err == nil {
			err = pl.errs[c]
		}
	}
	return err
}

// release hands the level's decoded class streams back. Idempotent.
func (pl *levelPlan[T]) release() {
	for c := range pl.dcs {
		pl.dcs[c].release()
	}
}

// allocViews gives every view of the level its grid: a new caller-owned
// grid at the requested level (owned), below it a scratch lease — a dirty
// one will do, since every point of need[t] is written before the level
// above reads it.
func (pl *levelPlan[T]) allocViews(owned bool) {
	for i := range pl.views {
		v := &pl.views[i]
		v.g = &grid.Grid[T]{Nz: v.b.Z1 - v.b.Z0, Ny: v.b.Y1 - v.b.Y0, Nx: v.b.X1 - v.b.X0}
		if owned {
			v.g.Data = make([]T, v.b.Volume())
		} else {
			v.g.Data = scratch.LeaseFloat[T](v.b.Volume())
		}
	}
}

// decodePhase runs every decode of a reconstruction as one parallel.For:
// the level-1 base for need, then the allocation of the requested level's
// caller-owned grids (zeroed memory, so it runs beside the decodes rather
// than before the sweep), then the touched class streams of each planned
// level, coarsest level first — the critical path's order — so every class
// stream, which depends only on archive bytes, decodes beside the base. It
// returns the base's view.
func (r *Reader[T]) decodePhase(need grid.Box, plans []levelPlan[T], st *Stats) (view[T], error) {
	if err := r.checkBaseDims(); err != nil {
		return view[T]{}, err
	}
	type task struct{ p, c int } // p < 0: the base; c == 0: level p's grids
	tasks := []task{{p: -1}}
	if len(plans) > 0 {
		tasks = append(tasks, task{p: len(plans) - 1})
	}
	for p := range plans {
		for c := 1; c < 8; c++ {
			if plans[p].touched(c) {
				tasks = append(tasks, task{p, c})
			}
		}
	}
	spans := make([][2]time.Time, len(tasks))
	var base view[T]
	var err error
	parallel.For(len(tasks), r.workers(), func(i int) {
		spans[i][0] = time.Now()
		switch tk := tasks[i]; {
		case tk.p < 0:
			base, err = r.decodeBase(need)
		case tk.c == 0:
			plans[tk.p].allocViews(true)
		default:
			plans[tk.p].decode(r, tk.c)
		}
		spans[i][1] = time.Now()
	})
	// Each stage's timer spans its own tasks, so concurrent stages overlap.
	var first, last [3]time.Time
	for i, tk := range tasks {
		s := spans[i]
		if tk.p < 0 {
			st.L1SZ3 = s[1].Sub(s[0])
			continue
		}
		if tk.c == 0 {
			st.LevelRecon[tk.p] = s[1].Sub(s[0])
			continue
		}
		if first[tk.p].IsZero() || s[0].Before(first[tk.p]) {
			first[tk.p] = s[0]
		}
		if s[1].After(last[tk.p]) {
			last[tk.p] = s[1]
		}
	}
	for p := range plans {
		st.LevelDecode[p] = last[p].Sub(first[p])
		if e := plans[p].account(st); err == nil {
			err = e
		}
	}
	if err != nil {
		if base.g != nil {
			scratch.ReleaseFloat(base.g.Data)
		}
		return view[T]{}, err
	}
	return base, nil
}

// sweepLevel rebuilds the planned level's views from coarse, the level
// below's reconstruction: one sweep per view, parallel over z-blocks, that
// copies the even lattice through and predicts and dequantizes the seven
// classes row by row.
func (r *Reader[T]) sweepLevel(pl *levelPlan[T], coarse view[T], st *Stats) error {
	tPre := time.Now()
	defer func() { st.LevelPredict[pl.p] += time.Since(tPre) }()
	lv, dcs := pl.lv, &pl.dcs
	lv.predictFrom(coarse.g, coarse.o, r.hdr.Predictor)

	// One task per (view, z-block of the coarse planes the view depends on).
	type task struct{ view, k0, k1 int }
	var tasks []task
	for i := range pl.views {
		k0, k1 := lv.dims[0][0], 0
		for _, sb := range pl.sub[i] {
			if !sb.Empty() {
				k0, k1 = min(k0, sb.Z0), max(k1, sb.Z1)
			}
		}
		bounds := parallel.Chunks(k1-k0, zBlocks(k1-k0, r.workers()))
		for b := 0; b+1 < len(bounds); b++ {
			tasks = append(tasks, task{i, k0 + bounds[b], k0 + bounds[b+1]})
		}
	}
	terrs := make([]error, len(tasks))
	v4 := r.hdr.Version >= 4
	bin, radius := 2*pl.q.EB, pl.q.Radius
	parallel.For(len(tasks), r.workers(), func(ti int) {
		tk := tasks[ti]
		v := pl.views[tk.view]
		// A class row never outruns the coarse window it is predicted from.
		preds := scratch.LeaseFloat[T](coarse.g.Nx)
		defer scratch.ReleaseFloat(preds)
		var cursors [8]outlierCursor
		var ess [8]escapes[T]
		for c := 1; c < 8; c++ {
			ess[c] = escapes[T]{vals: dcs[c].esc}
			if !v4 {
				cursors[c] = newOutlierCursor(dcs[c])
				ess[c] = escapes[T]{oc: &cursors[c], outliers: dcs[c].outliers}
			}
		}
		// The task's error stays on its own stack until the sweep ends:
		// neighbouring tasks' terrs share a cache line.
		var err error
		lv.sweep(&pl.sub[tk.view], tk.k0, tk.k1, preds, func(c, k, j, lo, hi int, preds []T) {
			if err != nil {
				return
			}
			off := grid.Stride2Offsets[c]
			dst := v.g.Data[v.idx(2*k+off.Z, 2*j+off.Y, 2*lo+off.X):]
			if c == 0 {
				spread(dst, coarse.g.Data[coarse.idx(k, j, lo):][:hi-lo])
				return
			}
			dc := &dcs[c]
			at := dc.at(k, j, lo)
			err = dequantRow(dst, dc.codes[at:][:hi-lo], preds, bin, radius, &ess[c], at)
		})
		terrs[ti] = err
	})
	for _, e := range terrs {
		if e != nil {
			return e
		}
	}
	return nil
}

// reconstruct is the one walker behind every decode. It rebuilds the given
// regions of hierarchy level lv (1 = coarsest; boxes in that level's grid
// coordinates) into one result grid per region, in two phases. It plans
// every predicted level up to lv from geometry alone, then decodes the
// level-1 base and every class stream the plans touch in one parallel
// phase, then sweeps the levels in order, each only where the regions
// depend on it. A full decode is the region that needs everything.
func (r *Reader[T]) reconstruct(lv int, regions []grid.Box, st *Stats) ([]*grid.Grid[T], error) {
	t0 := time.Now()
	defer func() { st.Total = time.Since(t0) }()
	levels, dims := r.hdr.Levels, r.chainDims()
	top := levels - lv // chain index of the requested level
	// need[t] is the part of chain grid t the reconstruction reads: at the
	// requested level the regions, one level down the union of what each
	// region's prediction reads, and below that what the level above
	// reads — all of its view need[t-1], which may span the gaps between
	// the regions' own cones.
	need := make([]grid.Box, levels)
	for _, b := range regions {
		need[top] = need[top].Union(b)
		if top+1 < levels {
			d := dims[top+1]
			need[top+1] = need[top+1].Union(neededCoarse(b, d[0], d[1], d[2]))
		}
	}
	for t := top + 2; t < levels; t++ {
		need[t] = neededCoarse(need[t-1], dims[t][0], dims[t][1], dims[t][2])
	}

	// Plan, coarsest level first: below the requested level one view of
	// need[t], at it one view per region.
	plans := make([]levelPlan[T], levels-1-top)
	for p := range plans {
		t := levels - 2 - p
		var views []view[T]
		if t > top {
			views = []view[T]{regionView[T](need[t])}
		} else {
			for _, b := range regions {
				views = append(views, regionView[T](b))
			}
		}
		plans[p] = r.planLevel(p, dims[t], views)
	}
	defer func() {
		for p := range plans {
			plans[p].release()
		}
	}()

	coarse, err := r.decodePhase(need[levels-1], plans, st)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		// Level 1 itself was requested.
		outs := make([]*grid.Grid[T], len(regions))
		for i, b := range regions {
			outs[i] = coarse.extract(b)
		}
		scratch.ReleaseFloat(coarse.g.Data)
		return outs, nil
	}
	for p := range plans {
		pl := &plans[p]
		final := p == len(plans)-1
		if !final {
			// The requested level's grids came from the decode phase.
			tRec := time.Now()
			pl.allocViews(false)
			st.LevelRecon[p] = time.Since(tRec)
		}
		err := r.sweepLevel(pl, coarse, st)
		// The coarse grid (the base decode or a leased intermediate) and the
		// level's class streams are dead whether or not the level failed.
		scratch.ReleaseFloat(coarse.g.Data)
		pl.release()
		if err != nil {
			if !final {
				scratch.ReleaseFloat(pl.views[0].g.Data)
			}
			return nil, err
		}
		coarse = pl.views[0]
	}
	outs := make([]*grid.Grid[T], len(regions))
	for i, v := range plans[len(plans)-1].views {
		outs[i] = v.g
	}
	return outs, nil
}

// Decompress reconstructs the full grid.
func (r *Reader[T]) Decompress() (*grid.Grid[T], error) {
	g, _, err := r.DecompressStats()
	return g, err
}

// DecompressStats reconstructs the full grid and reports stage timings.
func (r *Reader[T]) DecompressStats() (*grid.Grid[T], *Stats, error) {
	st := &Stats{}
	g, err := r.progressive(r.hdr.Levels, st)
	return g, st, err
}

// Progressive reconstructs the grid at hierarchy level lv (1 = coarsest).
// Level 1 of a 3-level stream is 1/64 of a 3D volume; level 2 is 1/8;
// level Levels is the full grid.
func (r *Reader[T]) Progressive(lv int) (*grid.Grid[T], error) {
	if lv < 1 || lv > r.hdr.Levels {
		return nil, fmt.Errorf("core: level %d out of range [1, %d]", lv, r.hdr.Levels)
	}
	return r.progressive(lv, &Stats{})
}

// progressive reconstructs the whole grid of hierarchy level lv.
func (r *Reader[T]) progressive(lv int, st *Stats) (*grid.Grid[T], error) {
	d := r.chainDims()[r.hdr.Levels-lv]
	outs, err := r.reconstruct(lv, []grid.Box{{Z1: d[0], Y1: d[1], X1: d[2]}}, st)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Decode-time helper: Decompress parses and fully decodes data in one call.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	r, err := NewReader[T](data)
	if err != nil {
		return nil, err
	}
	return r.Decompress()
}
