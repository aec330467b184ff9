package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/scratch"
	"stz/internal/sz3"
)

// Header is the public view of an STZ stream's metadata.
type Header struct {
	DType         byte // 4 = float32, 8 = float64
	Fz, Fy, Fx    int
	Levels        int
	Predictor     Predictor
	Residual      ResidualCoder
	AdaptiveEB    bool
	EBRatio       float64
	EB            float64
	Radius        int32
	PartitionOnly bool
	// BaseCodec is the registry name of the base-level codec ("sz3"
	// unless Config.BaseCodec overrode it).
	BaseCodec string
}

// Stats is the per-stage timing breakdown of a decompression, matching the
// stage taxonomy of the paper's Table 4: level-1 SZ3 decode, then per
// predicted level the entropy-decode (dec.), prediction+dequantization
// (pre.) and reassembly (rec.) stages, plus class-stream decode accounting.
// The level sweep copies the coarse lattice through while it predicts, so
// LevelPredict covers the whole sweep and LevelRecon only the level's
// allocation or lease.
type Stats struct {
	L1SZ3          time.Duration
	LevelDecode    [3]time.Duration // index 0 = paper level 2, up to level 4
	LevelPredict   [3]time.Duration
	LevelRecon     [3]time.Duration
	DecodedClasses [3]int
	SkippedClasses [3]int
	// Chunk accounting for streams written with Config.CodeChunk > 0
	// (random-access Huffman decoding).
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

// NewReader parses and validates the stream framing and header.
func NewReader[T grid.Float](data []byte) (*Reader[T], error) {
	arc, err := container.Open(data)
	if err != nil {
		return nil, err
	}
	if arc.Count() < 2 {
		return nil, fmt.Errorf("core: stream has no payload sections")
	}
	hsec, err := arc.Section(0)
	if err != nil {
		return nil, err
	}
	hdr, err := unmarshalHeader(hsec)
	if err != nil {
		return nil, err
	}
	if hdr.DType != dtypeOf[T]() {
		return nil, fmt.Errorf("core: stream element type mismatch")
	}
	wantSecs := 2 + (hdr.Levels-1)*7
	if hdr.PartitionOnly {
		wantSecs = 9
	}
	if arc.Count() != wantSecs {
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
		Predictor: h.Predictor, Residual: h.Residual, AdaptiveEB: h.AdaptiveEB,
		EBRatio: h.EBRatio, EB: h.EB, Radius: h.Radius, PartitionOnly: h.PartitionOnly,
		BaseCodec: r.base.Name(),
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

// decodedClass is one predicted class's decoded payload. codes and
// outliers are scratch-arena leases owned by the class; callers release
// them (via release) once reconstruction no longer reads them.
type decodedClass[T grid.Float] struct {
	codes          []uint16 // ResidQuant path
	outliers       []T
	diff           *grid.Grid[T] // ResidSZ3 path
	decodedSymbols int           // class codes that went through the entropy decoder
	// Escape index: the escapes before each chunkSize codes — per chunk as a
	// CodeChunk stream stores them, per class plane as indexEscapes counts
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
	scratch.ReleaseFloat(dc.outliers)
	dc.codes, dc.outliers = nil, nil
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

// decodeClass entropy-decodes the class stream of predicted level p,
// class c. n is the class size in points; only codes within [ciLo, ciHi)
// are guaranteed decoded: a multi-lane stream decodes the lane prefixes the
// range touches (huffman.DecodeLanesRange), and with chunked streams
// (Config.CodeChunk) chunks entirely outside the range are skipped.
func (r *Reader[T]) decodeClass(p, c int, q quant.Quantizer, n, ciLo, ciHi int) (decodedClass[T], error) {
	sec, err := r.arc.Section(r.classSection(p, c))
	if err != nil {
		return decodedClass[T]{}, err
	}
	if r.hdr.Residual == ResidSZ3 {
		// Classes already occupy the reader's worker pool: decode the
		// residual sub-block (and its v2 lanes) serially.
		diff, err := sz3.DecompressWorkers[T](sec, 1)
		if err != nil {
			return decodedClass[T]{}, fmt.Errorf("core: class %d residual: %w", c, err)
		}
		return decodedClass[T]{diff: diff, decodedSymbols: n}, nil
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

// view is one destination of a reconstruction step: the region b of the
// level's grid, stored in g, whose element (0,0,0) is the grid point o. The
// leased intermediates hold the whole level (o = 0) of which only b is
// written; a caller-owned result grid holds exactly b (o = b's origin).
type view[T grid.Float] struct {
	g *grid.Grid[T]
	o grid.Offset3
	b grid.Box
}

// idx returns the index in v.g.Data of the level's grid point (z, y, x).
func (v view[T]) idx(z, y, x int) int {
	return ((z-v.o.Z)*v.g.Ny+y-v.o.Y)*v.g.Nx + x - v.o.X
}

// decodeLevel1 decodes the deepest coarse grid (paper level 1).
func (r *Reader[T]) decodeLevel1() (*grid.Grid[T], error) {
	sec, err := r.arc.Section(1)
	if err != nil {
		return nil, err
	}
	g, err := codec.Decompress[T](r.base, sec, 1)
	if err != nil {
		return nil, fmt.Errorf("core: level 1: %w", err)
	}
	dims := r.chainDims()[r.hdr.Levels-1]
	if g.Nz != dims[0] || g.Ny != dims[1] || g.Nx != dims[2] {
		return nil, fmt.Errorf("core: level-1 dims mismatch")
	}
	return g, nil
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

// reconstructLevel is the one reconstruction step: it rebuilds the regions
// views[i].b of the predicted level p (0 = paper level 2, grid dims fdims)
// from the reconstructed coarse grid — entropy-decode the classes (and, in
// chunked streams, the chunks) any region touches, then one sweep per view,
// parallel over z-blocks, that copies the even lattice through and predicts
// and dequantizes the seven classes row by row — updating stats.
func (r *Reader[T]) reconstructLevel(p int, coarse *grid.Grid[T], fdims [3]int, views []view[T], st *Stats) error {
	lv := newLevel(coarse, fdims[0], fdims[1], fdims[2], r.hdr.Predictor)
	q := quant.Quantizer{EB: r.levelEB(p + 2), Radius: r.hdr.Radius}

	// sub[i][c] is view i's share of class c, in class coordinates.
	sub := make([][8]grid.Box, len(views))
	for i, v := range views {
		sub[i] = lv.subBoxes(v.b)
	}
	var dcs [8]decodedClass[T]
	var touched [8]bool // some region has a point of the class
	var errs [8]error
	defer func() {
		for c := range dcs {
			dcs[c].release()
		}
	}()

	tDec := time.Now()
	parallel.For(7, r.workers(), func(i int) {
		c := i + 1
		d := lv.dims[c]
		// [lo, hi) spans the row-major class indices the views touch.
		n := lv.classLen(c)
		lo, hi := n, 0
		for vi := range views {
			if sb := sub[vi][c]; !sb.Empty() {
				lo = min(lo, (sb.Z0*d[1]+sb.Y0)*d[2]+sb.X0)
				hi = max(hi, ((sb.Z1-1)*d[1]+sb.Y1-1)*d[2]+sb.X1)
			}
		}
		if touched[c] = lo < hi; !touched[c] {
			return
		}
		if dcs[c], errs[c] = r.decodeClass(p, i, q, n, lo, hi); errs[c] != nil {
			return
		}
		if r.hdr.Residual == ResidSZ3 {
			if diff := dcs[c].diff; diff.Nz != d[0] || diff.Ny != d[1] || diff.Nx != d[2] {
				errs[c] = fmt.Errorf("core: residual sub-block dims mismatch")
			}
		} else if len(dcs[c].codes) != n {
			errs[c] = fmt.Errorf("core: class code count %d, want %d", len(dcs[c].codes), n)
		} else {
			dcs[c].indexEscapes(d[1]*d[2], hi)
		}
	})
	st.LevelDecode[p] += time.Since(tDec)
	for c := 1; c < 8; c++ {
		st.TotalSymbols[p] += lv.classLen(c)
		if !touched[c] {
			st.SkippedClasses[p]++
			continue
		}
		st.DecodedClasses[p]++
		st.DecodedSymbols[p] += dcs[c].decodedSymbols
		st.DecodedChunks[p] += dcs[c].decodedChunks
		st.SkippedChunks[p] += dcs[c].totalChunks - dcs[c].decodedChunks
		if errs[c] != nil {
			return errs[c]
		}
	}

	// One task per (view, z-block of the coarse planes the view depends on).
	tPre := time.Now()
	type task struct{ view, k0, k1 int }
	tasks := make([]task, 0, len(views)*zBlocks(coarse.Nz, r.workers()))
	for i := range views {
		k0, k1 := coarse.Nz, 0
		for _, sb := range sub[i] {
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
	resid := r.hdr.Residual == ResidSZ3
	bin, radius := 2*q.EB, q.Radius
	parallel.For(len(tasks), r.workers(), func(ti int) {
		tk := tasks[ti]
		v := views[tk.view]
		preds := scratch.LeaseFloat[T](coarse.Nx)
		defer scratch.ReleaseFloat(preds)
		var cursors [8]outlierCursor
		for c := 1; c < 8; c++ {
			cursors[c] = newOutlierCursor(dcs[c])
		}
		lv.sweep(&sub[tk.view], tk.k0, tk.k1, preds, func(c, k, j, lo, hi int, preds []T) {
			if terrs[ti] != nil {
				return
			}
			off := grid.Stride2Offsets[c]
			dst := v.g.Data[v.idx(2*k+off.Z, 2*j+off.Y, 2*lo+off.X):]
			if c == 0 {
				spread(dst, coarse.Data[(k*coarse.Ny+j)*coarse.Nx:][lo:hi])
				return
			}
			d := lv.dims[c]
			ci0 := (k*d[1]+j)*d[2] + lo
			if resid {
				for t, diff := range dcs[c].diff.Data[ci0:][:hi-lo] {
					dst[2*t] = preds[t] + diff
				}
				return
			}
			for t, code := range dcs[c].codes[ci0:][:hi-lo] {
				if code != 0 {
					dst[2*t] = T(float64(preds[t]) + bin*float64(int32(code)-radius))
					continue
				}
				oi := cursors[c].take(ci0 + t)
				if oi >= len(dcs[c].outliers) {
					terrs[ti] = fmt.Errorf("core: outlier stream exhausted")
					return
				}
				dst[2*t] = dcs[c].outliers[oi]
			}
		})
	})
	st.LevelPredict[p] += time.Since(tPre)
	for _, e := range terrs {
		if e != nil {
			return e
		}
	}
	return nil
}

// reconstruct is the one walker behind every decode. It rebuilds the given
// regions of hierarchy level lv (1 = coarsest; boxes in that level's grid
// coordinates) into one result grid per region: level 1 is decoded once,
// then each predicted level up to lv is rebuilt only where the regions
// depend on it. A full decode is the region that needs everything.
func (r *Reader[T]) reconstruct(lv int, regions []grid.Box, st *Stats) ([]*grid.Grid[T], error) {
	t0 := time.Now()
	defer func() { st.Total = time.Since(t0) }()
	if r.hdr.PartitionOnly {
		return r.reconstructPartitionOnly(lv, regions)
	}
	levels, dims := r.hdr.Levels, r.chainDims()
	top := levels - lv // chain index of the requested level
	// need[t] is the part of chain grid t the regions depend on: the union
	// over regions of each one's restriction chain.
	need := make([]grid.Box, levels)
	for _, b := range regions {
		for t := top; t < levels; t++ {
			if t > top {
				b = neededCoarse(b, dims[t][0], dims[t][1], dims[t][2])
			}
			need[t] = need[t].Union(b)
		}
	}

	t1 := time.Now()
	cur, err := r.decodeLevel1()
	st.L1SZ3 = time.Since(t1)
	if err != nil {
		return nil, err
	}
	// Level 1 is stored whole, and only ever requested whole.
	outs := []*grid.Grid[T]{cur}
	for t := levels - 2; t >= top; t-- {
		p, d := levels-2-t, dims[t]
		tRec := time.Now()
		var views []view[T]
		if t > top {
			// An intermediate never escapes, so it is leased. Points outside
			// need[t] stay unwritten (dirty), which is safe because every
			// later read is confined to need[t] by construction (the
			// bit-identity tests against full decompression cover this).
			views = []view[T]{{b: need[t], g: &grid.Grid[T]{
				Data: scratch.LeaseFloat[T](d[0] * d[1] * d[2]), Nz: d[0], Ny: d[1], Nx: d[2]}}}
		} else {
			for _, b := range regions {
				views = append(views, view[T]{b: b, o: grid.Offset3{Z: b.Z0, Y: b.Y0, X: b.X0},
					g: grid.New[T](b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)})
			}
		}
		st.LevelRecon[p] += time.Since(tRec)
		err := r.reconstructLevel(p, outs[0], d, views, st)
		// The coarse grid is internal (the level-1 decode or a leased
		// intermediate); its backing can be recycled whether or not this
		// level failed.
		scratch.ReleaseFloat(outs[0].Data)
		outs = outs[:0]
		for _, v := range views {
			outs = append(outs, v.g)
		}
		if err != nil {
			if t > top {
				scratch.ReleaseFloat(outs[0].Data)
			}
			return nil, err
		}
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

// reconstructPartitionOnly is reconstruct for the Fig. 5 "Partition"
// ablation, whose 8 parity sub-blocks are coded independently: level 1 is
// the class-0 sub-block, level 2 the assembled grid.
func (r *Reader[T]) reconstructPartitionOnly(lv int, regions []grid.Box) ([]*grid.Grid[T], error) {
	if lv == 1 {
		sec, err := r.arc.Section(1)
		if err != nil {
			return nil, err
		}
		g, err := codec.Decompress[T](r.base, sec, 1)
		return []*grid.Grid[T]{g}, err
	}
	full, err := r.decompressPartitionOnly()
	if err != nil {
		return nil, err
	}
	outs := make([]*grid.Grid[T], len(regions))
	for i, b := range regions {
		outs[i] = full
		if b != grid.FullBox(full) {
			outs[i] = full.ExtractBox(b)
		}
	}
	return outs, nil
}

func (r *Reader[T]) decompressPartitionOnly() (*grid.Grid[T], error) {
	var blocks [8]*grid.Grid[T]
	errs := make([]error, 8)
	parallel.For(8, r.workers(), func(i int) {
		sec, err := r.arc.Section(1 + i)
		if err != nil {
			errs[i] = err
			return
		}
		if len(sec) == 0 {
			blocks[i] = grid.New[T](0, 0, 0)
			return
		}
		blocks[i], errs[i] = codec.Decompress[T](r.base, sec, 1)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return grid.AssembleStride2(blocks, r.hdr.Fz, r.hdr.Fy, r.hdr.Fx), nil
}

// Decode-time helper: Decompress parses and fully decodes data in one call.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	r, err := NewReader[T](data)
	if err != nil {
		return nil, err
	}
	return r.Decompress()
}
