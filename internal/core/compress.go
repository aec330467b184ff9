package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/scratch"
	"stz/internal/sz3"
)

// headerVersion is the core stream format version. Version 2 added the
// base-codec ID byte; version 3 switched the class code streams to the
// multi-lane Huffman payload (huffman.EncodeLanes). Version-1 and -2
// streams are still readable (implicit SZ3 / single-stream Huffman).
const headerVersion = 3

// header is the section-0 payload.
type header struct {
	Version       byte
	DType         byte // 4 = float32, 8 = float64
	PartitionOnly bool
	Levels        int
	Predictor     Predictor
	Residual      ResidualCoder
	AdaptiveEB    bool
	BaseID        uint8 // registry ID of the base-level codec
	EBRatio       float64
	EB            float64
	Radius        int32
	CodeChunk     int
	Fz, Fy, Fx    int
}

func (h header) marshal() []byte {
	buf := make([]byte, 44)
	buf[0] = h.Version
	buf[1] = h.DType
	if h.PartitionOnly {
		buf[2] = 1
	}
	buf[3] = byte(h.Levels)
	buf[4] = byte(h.Predictor)
	buf[5] = byte(h.Residual)
	if h.AdaptiveEB {
		buf[6] = 1
	}
	buf[7] = h.BaseID
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Fz))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.Fy))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.Fx))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(h.EB))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(h.EBRatio))
	binary.LittleEndian.PutUint32(buf[36:], uint32(h.Radius))
	binary.LittleEndian.PutUint32(buf[40:], uint32(h.CodeChunk))
	return buf
}

func unmarshalHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < 44 {
		return h, fmt.Errorf("core: header too short")
	}
	h.Version = buf[0]
	if h.Version < 1 || h.Version > headerVersion {
		return h, fmt.Errorf("core: unsupported version %d", h.Version)
	}
	h.DType = buf[1]
	h.PartitionOnly = buf[2] != 0
	h.Levels = int(buf[3])
	h.Predictor = Predictor(buf[4])
	h.Residual = ResidualCoder(buf[5])
	h.AdaptiveEB = buf[6] != 0
	h.BaseID = buf[7]
	if h.Version == 1 || h.BaseID == 0 {
		h.BaseID = codec.IDSZ3 // pre-registry streams are always SZ3-based
	}
	if h.BaseID == codec.IDSTZ {
		return h, errBaseIsSTZ
	}
	h.Fz = int(binary.LittleEndian.Uint32(buf[8:]))
	h.Fy = int(binary.LittleEndian.Uint32(buf[12:]))
	h.Fx = int(binary.LittleEndian.Uint32(buf[16:]))
	h.EB = math.Float64frombits(binary.LittleEndian.Uint64(buf[20:]))
	h.EBRatio = math.Float64frombits(binary.LittleEndian.Uint64(buf[28:]))
	h.Radius = int32(binary.LittleEndian.Uint32(buf[36:]))
	h.CodeChunk = int(binary.LittleEndian.Uint32(buf[40:]))
	if h.DType != 4 && h.DType != 8 {
		return h, fmt.Errorf("core: bad dtype %d", h.DType)
	}
	// Everything below sizes an allocation or indexes a table at decode
	// time, so the reader enforces what Config.validate does for the writer.
	if _, err := codec.CheckDims(h.Fz, h.Fy, h.Fx); err != nil {
		return h, fmt.Errorf("core: %w", err)
	}
	if h.PartitionOnly {
		h.Levels = 2 // what the writer forces; the stored byte carries nothing
	} else if h.Levels < 2 || h.Levels > 4 || h.Predictor > PredCubic || h.Residual > ResidSZ3 {
		return h, fmt.Errorf("core: bad levels/predictor/residual %d/%d/%d", h.Levels, h.Predictor, h.Residual)
	}
	// Codes are uint16, so no valid stream has a radius past 32768.
	if !(h.EB > 0) || math.IsInf(h.EB, 0) || h.Radius <= 0 || h.Radius > quant.DefaultRadius {
		return h, fmt.Errorf("core: bad bound/radius")
	}
	if h.AdaptiveEB && (!(h.EBRatio > 0) || math.IsInf(h.EBRatio, 0)) {
		return h, fmt.Errorf("core: bad level bound ratio %g", h.EBRatio)
	}
	return h, nil
}

func dtypeOf[T grid.Float]() byte {
	var v T
	if _, ok := any(v).(float32); ok {
		return 4
	}
	return 8
}

// appendValue appends the little-endian storage form of v to buf. The
// conversions sit in non-generic helpers, like rawio's: written inside a
// shape-instantiated body they can cost a call per value.
func appendValue[T grid.Float](buf []byte, v T) []byte {
	switch x := any(v).(type) {
	case float32:
		return appendF32(buf, x)
	case float64:
		return appendF64(buf, x)
	}
	return buf
}

func appendF32(buf []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// readValues fills dst with len(dst) little-endian values from data.
func readValues[T grid.Float](dst []T, data []byte) error {
	if len(data) < len(dst)*rawio.ElemSize[T]() {
		return fmt.Errorf("core: outlier data truncated")
	}
	rawio.GetValues(dst, data)
	return nil
}

// EncodeStats is the per-stage timing breakdown of a compression — the
// write-side mirror of Stats. It is an output, not a knob. The write side
// runs as a few parallel phases (see CompressStats), and a stage is timed
// over its own tasks, from the first one's start to the last one's end, so
// stages that share a phase overlap one another; Total stays the call's
// wall time.
type EncodeStats struct {
	Chain    time.Duration // coarse-chain cuts: level 1's input, then the rest beside level 1
	L1Encode time.Duration // level 1 through the base codec, its reconstruction included
	// Per predicted level (index 0 = paper level 2, up to level 4): the
	// predict+quantise sweep, then the class section builds (Huffman; under
	// ResidSZ3 the whole per-class residual pipeline, which is the sweep).
	Quantise [3]time.Duration
	Entropy  [3]time.Duration
	// Plan is the first step of Entropy, included in it: histograms, code
	// tables and section framing; the rest is the lane writes.
	Plan     [3]time.Duration
	Assemble time.Duration // container framing
	Total    time.Duration
	Outliers [3]int // escaped points per predicted level
}

// Compress encodes g as an STZ stream under cfg.
func Compress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	enc, _, err := CompressStats(g, cfg)
	return enc, err
}

// CompressStats is Compress reporting where the time went.
//
// The write side is one task graph. Level p+1's sweep needs level p's
// reconstruction, which level p's own sweep writes, and nothing of its
// entropy stage; a level's lane writes need its plans. So the graph runs as
// a pipeline of phases, each one parallel.For over tasks that depend only on
// earlier phases:
//
//	phase 0:    level 1, cut from g and encoded by the base codec, which
//	            hands back its reconstruction; beside it the rest of the
//	            chain, each grid cut from g directly
//	phase k≥1:  level k+1's sweep, level k's plans, level k−1's lane writes
//
// and two more phases drain the last levels' entropy steps. Every task
// writes bytes no other task of its phase touches, so the archive does not
// depend on the worker count or the order the tasks ran in.
func CompressStats[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, *EncodeStats, error) {
	st := &EncodeStats{}
	t0 := time.Now()
	defer func() { st.Total = time.Since(t0) }()
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	if g.Len() == 0 {
		return nil, st, fmt.Errorf("core: empty grid")
	}
	if cfg.PartitionOnly {
		enc, err := compressPartitionOnly(g, cfg)
		return enc, st, err
	}
	levels := cfg.Levels
	e := &encoder[T]{
		g: g, cfg: cfg, workers: max(cfg.Workers, 1), st: st,
		base:  codec.MustLookup(cfg.baseCodec()),
		chain: make([]*grid.Grid[T], levels),
		encs:  make([]*levelEnc[T], levels-1),
	}
	defer e.release()

	// Coarse chain: chain[t] is g at stride 2^t, chain[0] = g itself. Each
	// grid is cut from g directly, so none waits for another; level 1's input
	// is cut first.
	e.chain[0] = g
	for t := 1; t < levels; t++ {
		s := 1 << t
		e.chain[t] = e.leaseGrid(grid.SubDim(g.Nz, 0, s), grid.SubDim(g.Ny, 0, s), grid.SubDim(g.Nx, 0, s))
	}
	e.cut(levels - 1)
	st.Chain = time.Since(t0)

	var b container.Builder
	codeChunk := cfg.CodeChunk
	if cfg.Residual == ResidSZ3 {
		codeChunk = 0 // the ablation path has no code stream to chunk
	}
	hdr := header{
		Version: headerVersion, DType: dtypeOf[T](),
		Levels: levels, Predictor: cfg.Predictor, Residual: cfg.Residual,
		AdaptiveEB: cfg.AdaptiveEB, BaseID: e.base.ID(), EBRatio: cfg.ebRatio(),
		EB: cfg.EB, Radius: cfg.radius(), CodeChunk: codeChunk,
		Fz: g.Nz, Fy: g.Ny, Fx: g.Nx,
	}
	b.Add(hdr.marshal())

	// Phase 0.
	e.add(encTask{kind: taskL1})
	for t := levels - 2; t >= 1; t-- {
		e.add(encTask{kind: taskCut, p: t})
	}
	e.runPhase()
	if e.l1err != nil {
		return nil, st, fmt.Errorf("core: level-1 %s: %w", e.base.Name(), e.l1err)
	}
	// Nothing else holds the reconstruction, so its backing (a scratch lease
	// for the sz3 base) goes back with the others, as in the reader.
	e.leased = append(e.leased, e.l1rec.Data)
	b.Add(e.l1blob)

	// Phases 1 on: predicted levels coarsest to finest, each level's two
	// entropy steps one and two phases behind its sweep. ResidSZ3's sweep
	// builds the sections itself, so its levels have no entropy steps.
	n, resid := len(e.encs), cfg.Residual == ResidSZ3
	coarse := e.l1rec
	for k := 0; k < n+2; k++ {
		if p := k; p < n {
			fine := e.chain[levels-2-p]
			// The finest level's reconstruction has no consumer.
			var fineRecon *grid.Grid[T]
			if p < n-1 {
				fineRecon = e.leaseGrid(fine.Nz, fine.Ny, fine.Nx)
			}
			q := quant.Quantizer{EB: cfg.levelEB(p + 2), Radius: cfg.radius()}
			e.encs[p] = newLevelEnc(fine, fineRecon, coarse, q, cfg, e.workers)
			kind, tasks := taskSweep, len(e.encs[p].escapes)
			if resid {
				kind, tasks = taskResid, 8
			}
			for i := 0; i < tasks; i++ {
				e.add(encTask{kind: kind, p: p, i: i})
			}
			coarse = fineRecon
		}
		if p := k - 1; 0 <= p && p < n && !resid {
			for i := range e.encs[p].plans {
				e.add(encTask{kind: taskPlan, p: p, i: i})
			}
		}
		if p := k - 2; 0 <= p && p < n && !resid {
			for i := 0; i < 7*huffman.Lanes; i++ {
				e.add(encTask{kind: taskLane, p: p, i: i})
			}
		}
		e.runPhase()
		if k < n {
			if err := e.encs[k].err(); err != nil {
				return nil, st, err
			}
		}
		if p := k - 1; 0 <= p && p < n {
			e.encs[p].releaseEscapes()
		}
		if p := k - 2; 0 <= p && p < n {
			e.encs[p].release()
		}
	}
	for p, le := range e.encs {
		for _, sec := range le.secs {
			b.Add(sec)
			st.Outliers[p] += int(binary.LittleEndian.Uint32(sec))
		}
		st.Entropy[p] += st.Plan[p] + e.lanes[p]
	}
	t3 := time.Now()
	enc := b.Bytes()
	st.Assemble = time.Since(t3)
	return enc, st, nil
}

// encoder is one compression in flight: the coarse chain, level 1 and the
// predicted levels, and the phase being assembled.
type encoder[T grid.Float] struct {
	g       *grid.Grid[T]
	cfg     Config
	workers int
	st      *EncodeStats
	lanes   [3]time.Duration // the lane-write share of Entropy, per level
	base    codec.Codec
	chain   []*grid.Grid[T]
	l1blob  []byte
	l1rec   *grid.Grid[T]
	l1err   error
	encs    []*levelEnc[T] // index p: predicted level p, 0 = paper level 2
	// Internal grids (the coarse chain and the per-level reconstructions)
	// are backed by scratch leases released when compression finishes; they
	// are fully overwritten before any read, so dirty leases are safe.
	leased [][]T
	tasks  []encTask
	spans  [][2]time.Time
}

// taskKind is what a node of the write side's graph does.
type taskKind uint8

const (
	taskL1    taskKind = iota // level 1 through the base codec
	taskCut                   // cut chain grid p from g
	taskSweep                 // z-block i of level p's sweep
	taskResid                 // ResidSZ3: level p's class i+1 residual pipeline, or (i = 7) its lattice copy
	taskPlan                  // level p's plan of class i+1
	taskLane                  // level p's lane i%Lanes of class i/Lanes+1
)

type encTask struct {
	kind taskKind
	p, i int
}

func (e *encoder[T]) leaseGrid(nz, ny, nx int) *grid.Grid[T] {
	buf := scratch.LeaseFloat[T](nz * ny * nx)
	e.leased = append(e.leased, buf)
	return &grid.Grid[T]{Data: buf, Nz: nz, Ny: ny, Nx: nx}
}

func (e *encoder[T]) cut(t int) { e.g.ExtractStrideInto(e.chain[t], grid.Offset3{}, 1<<t) }

// add appends tk to the phase being assembled. Tasks run in the order added
// — the large ones first, so the small ones fill the tail — and a stage's
// tasks are added together.
func (e *encoder[T]) add(tk encTask) { e.tasks = append(e.tasks, tk) }

// runPhase runs the assembled phase as one parallel.For, then adds to each
// stage's timer the span of its tasks, from the first start to the last end.
func (e *encoder[T]) runPhase() {
	e.spans = slices.Grow(e.spans[:0], len(e.tasks))[:len(e.tasks)]
	parallel.For(len(e.tasks), e.workers, func(i int) {
		e.spans[i][0] = time.Now()
		e.run(e.tasks[i])
		e.spans[i][1] = time.Now()
	})
	for i := 0; i < len(e.tasks); {
		tk, first, last := e.tasks[i], e.spans[i][0], e.spans[i][1]
		for i++; i < len(e.tasks) && e.tasks[i].kind == tk.kind && e.tasks[i].p == tk.p; i++ {
			if e.spans[i][0].Before(first) {
				first = e.spans[i][0]
			}
			if e.spans[i][1].After(last) {
				last = e.spans[i][1]
			}
		}
		*e.stage(tk) += last.Sub(first)
	}
	e.tasks = e.tasks[:0]
}

func (e *encoder[T]) run(tk encTask) {
	switch tk.kind {
	case taskL1:
		// One serial base-codec call, so that parallel and serial STZ
		// produce identical streams.
		l1cfg := codec.Config{EB: e.cfg.levelEB(1), Radius: e.cfg.radius()}
		e.l1blob, e.l1rec, e.l1err = codec.CompressRecon(e.base, e.chain[len(e.chain)-1], l1cfg)
	case taskCut:
		e.cut(tk.p)
	case taskSweep:
		e.encs[tk.p].sweepBlock(tk.i)
	case taskResid:
		e.encs[tk.p].residClass(tk.i)
	case taskPlan:
		e.encs[tk.p].plan(tk.i)
	case taskLane:
		e.encs[tk.p].plans[tk.i/huffman.Lanes].writeLane(tk.i % huffman.Lanes)
	}
}

// stage returns the EncodeStats timer tk is charged to.
func (e *encoder[T]) stage(tk encTask) *time.Duration {
	switch tk.kind {
	case taskL1:
		return &e.st.L1Encode
	case taskCut:
		return &e.st.Chain
	case taskSweep:
		return &e.st.Quantise[tk.p]
	case taskResid:
		return &e.st.Entropy[tk.p]
	case taskPlan:
		return &e.st.Plan[tk.p]
	default: // taskLane
		return &e.lanes[tk.p]
	}
}

// release hands back every lease the compression still holds.
func (e *encoder[T]) release() {
	for _, b := range e.leased {
		scratch.ReleaseFloat(b)
	}
	for _, le := range e.encs {
		if le != nil {
			le.release()
		}
	}
}

// appendEscape appends the storage form of v to buf, a z-block's escaped
// values of one class held in a scratch.Bytes lease (nil until the first
// escape). It re-leases as buf grows, so releasing the returned slice hands
// back exactly the buffer that is held.
func appendEscape[T grid.Float](buf []byte, v T) []byte {
	if len(buf)+8 > cap(buf) {
		grown := scratch.Bytes.Lease(max(256, 2*cap(buf)))[:len(buf)]
		copy(grown, buf)
		scratch.Bytes.Release(buf)
		buf = grown
	}
	return appendValue(buf, v)
}

// levelEnc is one predicted level on its way through the write side: the
// seven predicted classes of fine, coded against the reconstructed coarse
// grid in three steps — the sweep, the plans and the lane writes — each a
// set of tasks of consecutive phases. A non-nil fineRecon — a finer level
// will be predicted from it — receives the level's reconstruction, coarse
// lattice included, during the sweep.
//
// The sweep runs over the coarse rows in z-blocks: each block writes its own
// index range of the per-class code buffers and collects its escapes per
// class, so the blocks' escapes concatenated in block order are in class
// order. Under ResidSZ3 the sweep is instead the seven per-class residual
// pipelines, which build the sections themselves.
type levelEnc[T grid.Float] struct {
	lv                      *level[T]
	fine, fineRecon, coarse *grid.Grid[T]
	whole                   [8]grid.Box // the level's class boxes
	q                       quant.Quantizer
	codeChunk               int
	codes                   [8][]uint16
	bounds                  []int       // the sweep's z-blocks of coarse planes
	escapes                 [][8][]byte // [block][class]
	plans                   [7]classPlan
	secs                    [7][]byte
	errs                    [7]error // ResidSZ3's class pipelines
}

func newLevelEnc[T grid.Float](fine, fineRecon, coarse *grid.Grid[T], q quant.Quantizer, cfg Config, workers int) *levelEnc[T] {
	le := &levelEnc[T]{fine: fine, fineRecon: fineRecon, coarse: coarse, q: q, codeChunk: cfg.CodeChunk}
	le.lv = newLevel[T](fine.Nz, fine.Ny, fine.Nx)
	le.lv.predictFrom(coarse, grid.Offset3{}, cfg.Predictor)
	le.whole = le.lv.subBoxes(grid.FullBox(fine))
	if cfg.Residual != ResidSZ3 {
		for c := 1; c < 8; c++ {
			le.codes[c] = scratch.U16.Lease(le.lv.classLen(c))
		}
		le.bounds = parallel.Chunks(coarse.Nz, zBlocks(coarse.Nz, workers))
		le.escapes = make([][8][]byte, len(le.bounds)-1)
	}
	return le
}

// sweepBlock predicts and quantises all seven classes over z-block b.
func (le *levelEnc[T]) sweepBlock(b int) {
	lv, fine, coarse := le.lv, le.fine, le.coarse
	fq := le.q.Fast()
	fdata := fine.Data
	var rdata []T
	if le.fineRecon != nil {
		rdata = le.fineRecon.Data
	}
	preds := scratch.LeaseFloat[T](coarse.Nx)
	defer scratch.ReleaseFloat(preds)
	esc := &le.escapes[b]
	lv.sweep(&le.whole, le.bounds[b], le.bounds[b+1], preds, func(c, k, j, lo, hi int, preds []T) {
		off := grid.Stride2Offsets[c]
		f0 := ((2*k+off.Z)*fine.Ny+2*j+off.Y)*fine.Nx + off.X
		if c == 0 {
			if rdata != nil {
				spread(rdata[f0:], coarse.Data[(k*coarse.Ny+j)*coarse.Nx:][:hi])
			}
			return
		}
		d := lv.dims[c]
		row := le.codes[c][(k*d[1]+j)*d[2]:][:hi]
		var rrow []T
		if rdata != nil {
			rrow = rdata[f0:]
		}
		if quant.QuantizeRow(fq, fdata[f0:], 2, preds, row, rrow) > 0 {
			for t, code := range row {
				if code == 0 {
					esc[c] = appendEscape(esc[c], fdata[f0+2*t])
				}
			}
		}
	})
}

// residClass is ResidSZ3's task i: class i+1's residual pipeline for
// i < 7, then the coarse lattice copied into the reconstruction.
func (le *levelEnc[T]) residClass(i int) {
	if i < 7 {
		le.secs[i], le.errs[i] = compressClassSZ3(le.lv, i+1, le.fine, le.fineRecon, le.q)
	} else if le.fineRecon != nil {
		le.fineRecon.InsertStride(le.coarse, grid.Offset3{}, 2)
	}
}

// plan is the first entropy step for class i+1: the stream histogrammed and
// its code built, which fixes every byte's place, so the section is
// allocated once at its exact size with all but the payload in it. The lane
// writes then put each lane at its final offset.
func (le *levelEnc[T]) plan(i int) {
	le.plans[i] = planClass(le.codes[i+1], le.escapes, i+1, int(dtypeOf[T]()), le.q.Alphabet(), le.codeChunk)
}

// err returns the first error of the level's sweep.
func (le *levelEnc[T]) err() error {
	for _, e := range le.errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// releaseEscapes hands back the escape buffers, which the plans have
// copied into the sections. Idempotent.
func (le *levelEnc[T]) releaseEscapes() {
	for b := range le.escapes {
		for c, buf := range le.escapes[b] {
			scratch.Bytes.Release(buf)
			le.escapes[b][c] = nil
		}
	}
}

// release hands back everything the level still holds, keeping its plans'
// sections in secs. Idempotent.
func (le *levelEnc[T]) release() {
	le.releaseEscapes()
	for i := range le.plans {
		if le.plans[i].streams != nil {
			le.secs[i] = le.plans[i].release()
		}
	}
	for c := 1; c < 8; c++ {
		scratch.U16.Release(le.codes[c])
		le.codes[c] = nil
	}
}

// classPlan is one class section between the two entropy steps: the section
// at its final size, complete up to the Huffman payloads, and the planned
// streams with their offsets in it — one stream, or with CodeChunk > 0 one
// per chunk.
type classPlan struct {
	sec     []byte
	streams []*huffman.Plan
	offs    []int
}

// planClass frames one quantised class: escape count, the escaped values
// (class c's buffer of every z-block, in block order), then room for the
// entropy-coded codes — one multi-lane Huffman stream, or with codeChunk > 0
// independent chunks, each with its own code table, behind a per-chunk
// directory of (byte length, outlier base).
func planClass(codes []uint16, escapes [][8][]byte, c, elem, alphabet, codeChunk int) classPlan {
	outBytes := 0
	for b := range escapes {
		outBytes += len(escapes[b][c])
	}
	n, cs, nStreams, dirBytes := len(codes), len(codes), 1, 0
	if codeChunk > 0 {
		cs = codeChunk
		nStreams = (n + cs - 1) / cs
		dirBytes = 4 + 8*nStreams
	}
	chunk := func(i int) []uint16 { return codes[i*cs : min((i+1)*cs, n)] }
	cp := classPlan{streams: make([]*huffman.Plan, nStreams), offs: make([]int, nStreams)}
	off := 4 + outBytes + dirBytes
	for i := range cp.streams {
		cp.streams[i] = huffman.NewPlan(chunk(i), alphabet)
		cp.offs[i] = off
		off += cp.streams[i].Size()
	}

	sec := make([]byte, 0, off)
	sec = binary.LittleEndian.AppendUint32(sec, uint32(outBytes/elem))
	for b := range escapes {
		sec = append(sec, escapes[b][c]...)
	}
	if codeChunk > 0 {
		sec = binary.LittleEndian.AppendUint32(sec, uint32(nStreams))
		var zeros uint32
		for i, pl := range cp.streams {
			sec = binary.LittleEndian.AppendUint32(sec, uint32(pl.Size()))
			sec = binary.LittleEndian.AppendUint32(sec, zeros)
			for _, code := range chunk(i) {
				if code == 0 {
					zeros++
				}
			}
		}
	}
	cp.sec = sec[:off]
	return cp
}

// writeLane writes lane k of every planned stream of the section. Lanes own
// disjoint bytes, so the lanes of one section may be written concurrently.
func (cp *classPlan) writeLane(k int) {
	for i, pl := range cp.streams {
		pl.WriteLane(cp.sec[cp.offs[i]:], k)
	}
}

// release hands the plans back and returns the finished section.
func (cp *classPlan) release() []byte {
	for _, pl := range cp.streams {
		pl.Release()
	}
	cp.streams = nil
	return cp.sec
}

// compressClassSZ3 is the ResidSZ3 ablation for class c: the residual
// sub-block through the full SZ3 pipeline. The residual bound is tightened
// by 0.1% so that the float rounding of the final pred+diff recombination
// stays inside the user bound.
func compressClassSZ3[T grid.Float](lv *level[T], c int, fine, fineRecon *grid.Grid[T], q quant.Quantizer) ([]byte, error) {
	d, off, gen := lv.dims[c], grid.Stride2Offsets[c], &lv.gens[c]
	diff := &grid.Grid[T]{Data: scratch.LeaseFloat[T](lv.classLen(c)), Nz: d[0], Ny: d[1], Nx: d[2]}
	defer scratch.ReleaseFloat(diff.Data)
	preds := scratch.LeaseFloat[T](d[2])
	defer scratch.ReleaseFloat(preds)
	// rows runs fn over every class row: its predictions, its first class
	// index and its first fine index (the row's points are 2 apart).
	rows := func(fn func(preds []T, ci, fi int)) {
		for k := 0; k < d[0]; k++ {
			for j := 0; j < d[1]; j++ {
				gen.row(k, j, 0, d[2], preds)
				fn(preds, (k*d[1]+j)*d[2], ((2*k+off.Z)*fine.Ny+2*j+off.Y)*fine.Nx+off.X)
			}
		}
	}
	rows(func(preds []T, ci, fi int) {
		for t, pred := range preds {
			diff.Data[ci+t] = fine.Data[fi+2*t] - pred
		}
	})
	opts := sz3.Options{EB: q.EB * 0.999, Radius: q.Radius}
	if fineRecon == nil {
		return sz3.Compress(diff, opts)
	}
	blob, diffRec, err := sz3.CompressRecon(diff, opts)
	if err != nil {
		return nil, err
	}
	defer scratch.ReleaseFloat(diffRec.Data)
	rows(func(preds []T, ci, fi int) {
		for t, pred := range preds {
			fineRecon.Data[fi+2*t] = pred + diffRec.Data[ci+t]
		}
	})
	return blob, nil
}

// compressPartitionOnly is the Fig. 5 "Partition" ablation: the 8 stride-2
// parity sub-blocks are compressed independently with SZ3.
func compressPartitionOnly[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	base := codec.MustLookup(cfg.baseCodec())
	var b container.Builder
	hdr := header{
		Version: headerVersion, DType: dtypeOf[T](), PartitionOnly: true,
		Levels: 2, Predictor: cfg.Predictor, Residual: cfg.Residual,
		BaseID: base.ID(), EB: cfg.EB, EBRatio: cfg.ebRatio(),
		Radius: cfg.radius(), Fz: g.Nz, Fy: g.Ny, Fx: g.Nx,
	}
	b.Add(hdr.marshal())
	// The parity sub-blocks are transient inputs to the base codec, so they
	// are backed by scratch leases (fully overwritten by the extraction).
	var blocks [8]*grid.Grid[T]
	for i, off := range grid.Stride2Offsets {
		bz := grid.SubDim(g.Nz, off.Z, 2)
		by := grid.SubDim(g.Ny, off.Y, 2)
		bx := grid.SubDim(g.Nx, off.X, 2)
		blocks[i] = &grid.Grid[T]{Data: scratch.LeaseFloat[T](bz * by * bx), Nz: bz, Ny: by, Nx: bx}
		g.ExtractStrideInto(blocks[i], off, 2)
	}
	defer func() {
		for _, blk := range blocks {
			scratch.ReleaseFloat(blk.Data)
		}
	}()
	blobs := make([][]byte, len(blocks))
	errs := make([]error, len(blocks))
	opts := codec.Config{EB: cfg.EB, Radius: cfg.radius()}
	parallel.For(len(blocks), workers, func(i int) {
		if blocks[i].Len() == 0 {
			blobs[i] = nil
			return
		}
		blobs[i], errs[i] = codec.Compress(base, blocks[i], opts)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	for _, blob := range blobs {
		b.Add(blob)
	}
	return b.Bytes(), nil
}
