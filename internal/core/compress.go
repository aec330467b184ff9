package core

import (
	"encoding/binary"
	"errors"
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
// multi-lane Huffman payload (huffman.EncodeLanes); version 4 codes each
// class stream as one lane per brick of the class grid (bricks.go). Streams
// of versions 1–3, chunked ones included, are still readable; only version
// 4 is written.
const headerVersion = 4

// header is the section-0 payload. Bytes 2 and 5 are reserved and zero (an
// ablation coder once set them), and so is the uint32 at 40 in version 4;
// in versions 1–3 it is CodeChunk, the code count of a chunked stream's
// chunks, 0 when unchunked. Byte 7 is the level-1 codec's registry ID,
// always written as sz3's.
type header struct {
	Version    byte
	DType      byte // 4 = float32, 8 = float64
	Levels     int
	Predictor  Predictor
	AdaptiveEB bool
	EBRatio    float64
	EB         float64
	Radius     int32
	CodeChunk  int // read-only: versions 1–3
	Fz, Fy, Fx int
}

// errReservedHeader refuses a header that sets a field no supported writer
// sets: the reserved bytes 2 (the partition-only ablation) and 5 (the
// residual coder) in any version, or a chunk size in version 4.
var errReservedHeader = errors.New("core: header sets a reserved field")

// errBaseNotSZ3 refuses a header whose base-codec byte names anything but
// sz3, the paper's level-1 substrate and the only base the writer stamps.
// Among the refused IDs is stz's own: a reader that followed it would open
// one nested archive per level of nesting.
var errBaseNotSZ3 = errors.New("core: base codec: level 1 is not sz3")

func (h header) marshal() []byte {
	buf := make([]byte, 44)
	buf[0] = h.Version
	buf[1] = h.DType
	buf[3] = byte(h.Levels)
	buf[4] = byte(h.Predictor)
	if h.AdaptiveEB {
		buf[6] = 1
	}
	buf[7] = codec.IDSZ3
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Fz))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.Fy))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.Fx))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(h.EB))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(h.EBRatio))
	binary.LittleEndian.PutUint32(buf[36:], uint32(h.Radius))
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
	h.Levels = int(buf[3])
	h.Predictor = Predictor(buf[4])
	h.AdaptiveEB = buf[6] != 0
	// Pre-registry streams (version 1, or byte 7 still zero) are sz3-based.
	if h.Version > 1 && buf[7] != 0 && buf[7] != codec.IDSZ3 {
		return h, errBaseNotSZ3
	}
	h.Fz = int(binary.LittleEndian.Uint32(buf[8:]))
	h.Fy = int(binary.LittleEndian.Uint32(buf[12:]))
	h.Fx = int(binary.LittleEndian.Uint32(buf[16:]))
	h.EB = math.Float64frombits(binary.LittleEndian.Uint64(buf[20:]))
	h.EBRatio = math.Float64frombits(binary.LittleEndian.Uint64(buf[28:]))
	h.Radius = int32(binary.LittleEndian.Uint32(buf[36:]))
	h.CodeChunk = int(binary.LittleEndian.Uint32(buf[40:]))
	if buf[2] != 0 || buf[5] != 0 || h.Version >= 4 && h.CodeChunk != 0 {
		return h, errReservedHeader
	}
	if h.DType != 4 && h.DType != 8 {
		return h, fmt.Errorf("core: bad dtype %d", h.DType)
	}
	// Everything below sizes an allocation or indexes a table at decode
	// time, so the reader enforces what Config.validate does for the writer.
	if _, err := codec.CheckDims(h.Fz, h.Fy, h.Fx); err != nil {
		return h, fmt.Errorf("core: %w", err)
	}
	if h.Levels < 2 || h.Levels > 4 || h.Predictor > PredCubic {
		return h, fmt.Errorf("core: bad levels/predictor %d/%d", h.Levels, h.Predictor)
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

// EncodeStats is the per-stage timing breakdown of a compression — the
// write-side mirror of Stats. It is an output, not a knob. The write side
// runs as a few parallel phases (see CompressStats), and a stage is timed
// over its own tasks, from the first one's start to the last one's end, so
// stages that share a phase overlap one another; Total stays the call's
// wall time.
type EncodeStats struct {
	Chain    time.Duration // coarse-chain cuts: level 1's input, then the rest beside level 1
	L1Encode time.Duration // level 1 through sz3, its reconstruction included
	// Per predicted level (index 0 = paper level 2, up to level 4): the
	// predict+quantise sweep, then the class section builds (Huffman).
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
//	phase 0:    level 1, cut from g and encoded by sz3, which hands
//	            back its reconstruction; beside it the rest of the
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
	levels := cfg.Levels
	e := &encoder[T]{
		g: g, cfg: cfg, workers: max(cfg.Workers, 1), st: st,
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
	hdr := header{
		Version: headerVersion, DType: byte(rawio.ElemSize[T]()),
		Levels: levels, Predictor: cfg.Predictor,
		AdaptiveEB: cfg.AdaptiveEB, EBRatio: cfg.ebRatio(),
		EB: cfg.EB, Radius: cfg.radius(),
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
		return nil, st, fmt.Errorf("core: level-1 sz3: %w", e.l1err)
	}
	// Nothing else holds the reconstruction, so its backing (a scratch
	// lease) goes back with the others, as in the reader.
	e.leased = append(e.leased, e.l1rec.Data)
	b.Add(e.l1blob)

	// Phases 1 on: predicted levels coarsest to finest, each level's two
	// entropy steps one and two phases behind its sweep.
	n := len(e.encs)
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
			e.encs[p] = newLevelEnc(fine, fineRecon, coarse, q, cfg.Predictor, e.workers)
			for i := 0; i < len(e.encs[p].bounds)-1; i++ {
				e.add(encTask{kind: taskSweep, p: p, i: i})
			}
			coarse = fineRecon
		}
		if p := k - 1; 0 <= p && p < n {
			for i := range e.encs[p].lanes {
				e.add(encTask{kind: taskPlan, p: p, i: i})
			}
		}
		if p := k - 2; 0 <= p && p < n {
			for i := range e.encs[p].laneTasks() {
				e.add(encTask{kind: taskLane, p: p, i: i})
			}
		}
		e.runPhase()
		if p := k - 2; 0 <= p && p < n {
			e.encs[p].finish()
		}
	}
	// A section's parts are joined by the one copy assembly makes.
	for p, le := range e.encs {
		for _, parts := range le.secs {
			b.Add(parts...)
			st.Outliers[p] += int(binary.LittleEndian.Uint32(parts[0]))
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
	taskL1    taskKind = iota // level 1 through sz3
	taskCut                   // cut chain grid p from g
	taskSweep                 // z-block i of level p's sweep
	taskPlan                  // level p's plan of class i+1
	taskLane                  // level p's lane task i (levelEnc.writeLanes)
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
		// One serial sz3 call, so that parallel and serial STZ produce
		// identical streams.
		l1 := sz3.Options{EB: e.cfg.levelEB(1), Radius: e.cfg.radius()}
		e.l1blob, e.l1rec, e.l1err = sz3.CompressRecon(e.chain[len(e.chain)-1], l1)
	case taskCut:
		e.cut(tk.p)
	case taskSweep:
		e.encs[tk.p].sweepBlock(tk.i)
	case taskPlan:
		e.encs[tk.p].plan(tk.i)
	case taskLane:
		e.encs[tk.p].writeLanes(tk.i)
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

// levelEnc is one predicted level on its way through the write side: the
// seven predicted classes of fine, coded against the reconstructed coarse
// grid in three steps — the sweep, the plans and the lane writes — each a
// set of tasks of consecutive phases. A non-nil fineRecon — a finer level
// will be predicted from it — receives the level's reconstruction, coarse
// lattice included, during the sweep.
//
// The sweep runs over the coarse rows in z-blocks, each writing its own
// index range of the row-major per-class code buffers and marking the class
// rows that hold an escape. The entropy steps then read the codes where they
// lie: the lane tasks of a section copy out each brick's codes and gather
// the escapes of its marked rows from fine.
type levelEnc[T grid.Float] struct {
	lv                      *level[T]
	fine, fineRecon, coarse *grid.Grid[T]
	whole                   [8]grid.Box // the level's class boxes
	q                       quant.Quantizer
	codes                   [8][]uint16
	escRows                 [8][]byte     // per class row (k, j): non-zero if it holds an escape
	bounds                  []int         // the sweep's z-blocks of coarse planes
	lanes                   [7]classLanes // the class sections on their way
	secs                    [7][][]byte   // each section's parts, once finished
}

func newLevelEnc[T grid.Float](fine, fineRecon, coarse *grid.Grid[T], q quant.Quantizer, pred Predictor, workers int) *levelEnc[T] {
	le := &levelEnc[T]{fine: fine, fineRecon: fineRecon, coarse: coarse, q: q}
	le.lv = newLevel[T](fine.Nz, fine.Ny, fine.Nx)
	le.lv.predictFrom(coarse, grid.Offset3{}, pred)
	le.whole = le.lv.subBoxes(grid.FullBox(fine))
	for c := 1; c < 8; c++ {
		d := le.lv.dims[c]
		le.codes[c] = scratch.U16.Lease(le.lv.classLen(c))
		le.escRows[c] = scratch.Bytes.LeaseZeroed(d[0] * d[1])
	}
	le.bounds = parallel.Chunks(coarse.Nz, zBlocks(coarse.Nz, workers))
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
			le.escRows[c][k*d[1]+j] = 1
		}
	})
}

// plan is the first entropy step for class i+1: the stream histogrammed and
// its code built, which fixes the section's head — everything ahead of the
// escape values and the lanes.
func (le *levelEnc[T]) plan(i int) {
	le.lanes[i].plan(le.codes[i+1], le.lv.dims[i+1], le.q.Alphabet())
}

// laneTasks is the number of lane tasks of the level's sections: one per
// brick z-slab of every class.
func (le *levelEnc[T]) laneTasks() int {
	n := 0
	for i := range le.lanes {
		n += le.lanes[i].bs.n[0]
	}
	return n
}

// writeLanes is lane task t: the lanes and escapes of one brick z-slab.
func (le *levelEnc[T]) writeLanes(t int) {
	i := 0
	for ; t >= le.lanes[i].bs.n[0]; i++ {
		t -= le.lanes[i].bs.n[0]
	}
	le.writeSlab(i, t)
}

// writeSlab writes the lanes of brick z-slab bz of class i+1, each from a
// copy of its brick's codes in brick-local row-major order, into the slab's
// buffer, and when the class has escapes gathers each brick's values.
func (le *levelEnc[T]) writeSlab(i, bz int) {
	cl, codes := &le.lanes[i], le.codes[i+1]
	bs, d := cl.bs, cl.bs.d
	stage := scratch.U16.Lease(brickLen)
	defer scratch.U16.Release(stage)
	// Room for the slab's share of the stream's bits, a byte of padding a
	// lane, and one brick at its worst: a slab of average density never
	// grows its buffer.
	planes := min(brickZ, d[0]-bz*brickZ)
	share := int(int64(cl.code.Bits()) * int64(planes) / int64(d[0]))
	lanes := scratch.Bytes.Lease(share/8 + bs.slab() + cl.code.LaneBound(brickLen))[:0]
	for b := bz * bs.slab(); b < (bz+1)*bs.slab(); b++ {
		box := bs.box(b)
		n := 0
		for k := box.Z0; k < box.Z1; k++ {
			for j := box.Y0; j < box.Y1; j++ {
				n += copy(stage[n:], codes[(k*d[1]+j)*d[2]:][box.X0:box.X1])
			}
		}
		if need := len(lanes) + cl.code.LaneBound(n); need > cap(lanes) {
			grown := scratch.Bytes.Lease(max(need, 2*cap(lanes)))[:len(lanes)]
			copy(grown, lanes)
			scratch.Bytes.Release(lanes)
			lanes = grown
		}
		m, e := cl.code.WriteLane(lanes[len(lanes):cap(lanes)], stage[:n]), 0
		lanes = lanes[:len(lanes)+m]
		if cl.code.Zeros() > 0 {
			cl.vals[bz], e = le.appendEscapes(cl.vals[bz], i+1, box)
		}
		cl.dir.Set(b, m, e)
	}
	cl.lanes[bz] = lanes
}

// appendEscapes appends to buf the values of class c's escapes inside b, a
// box of the class grid, in row-major order, and returns it with their
// count. Only the rows the sweep marked are walked.
func (le *levelEnc[T]) appendEscapes(buf []byte, c int, b grid.Box) ([]byte, int) {
	d, off, fine := le.lv.dims[c], grid.Stride2Offsets[c], le.fine
	n := 0
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			if le.escRows[c][k*d[1]+j] == 0 {
				continue
			}
			f0 := ((2*k+off.Z)*fine.Ny+2*j+off.Y)*fine.Nx + off.X
			for x, code := range le.codes[c][(k*d[1]+j)*d[2]:][b.X0:b.X1] {
				if code == 0 {
					buf = rawio.AppendValues(buf, fine.Data[f0+2*(b.X0+x)])
					n++
				}
			}
		}
	}
	return buf, n
}

// finish hands back what the level's lane writes no longer need — the codes
// and the code tables — and keeps each finished section's parts in secs.
// Idempotent.
func (le *levelEnc[T]) finish() {
	for i := range le.lanes {
		if le.lanes[i].code != nil {
			le.secs[i] = le.lanes[i].finish()
		}
	}
	for c := 1; c < 8; c++ {
		scratch.U16.Release(le.codes[c])
		scratch.Bytes.Release(le.escRows[c])
		le.codes[c], le.escRows[c] = nil, nil
	}
}

// release is finish, then the lane buffers handed back too: the archive
// has been assembled from them, or will not be. Idempotent.
func (le *levelEnc[T]) release() {
	le.finish()
	for i := range le.lanes {
		le.lanes[i].release()
	}
}

// classLanes is a class section on its way through the entropy steps.
// Its parts, in order: the head — the escape count, then the head of a
// laned section of one lane per brick (huffman.Code.AppendHead: the code's
// header and the directory); the escape values, brick order; the lanes,
// brick order. The plan fixes the head; each lane task
// (levelEnc.writeSlab) fills its brick z-slab's directory entries and
// writes the slab's lanes and escape values into buffers of its own.
type classLanes struct {
	code  *huffman.Code
	bs    bricks
	head  []byte
	dir   huffman.Dir
	lanes [][]byte // per brick z-slab: its lanes back to back, a scratch.Bytes lease
	vals  [][]byte // per brick z-slab: its escape values
}

// plan builds the code of the class stream codes, of class dims d, and the
// section's head with room for the directory.
func (cl *classLanes) plan(codes []uint16, d [3]int, alphabet int) {
	cl.code = huffman.NewCode(codes, alphabet)
	cl.bs = newBricks(d)
	cl.head = binary.LittleEndian.AppendUint32(nil, uint32(cl.code.Zeros()))
	cl.head, cl.dir = cl.code.AppendHead(cl.head, cl.bs.count())
	cl.lanes = make([][]byte, cl.bs.n[0])
	cl.vals = make([][]byte, cl.bs.n[0])
}

// finish releases the code and returns the section's parts.
func (cl *classLanes) finish() [][]byte {
	cl.code.Release()
	cl.code = nil
	parts := append([][]byte{cl.head}, cl.vals...)
	return append(parts, cl.lanes...)
}

// release hands the lane buffers back. Idempotent.
func (cl *classLanes) release() {
	for i, buf := range cl.lanes {
		scratch.Bytes.Release(buf)
		cl.lanes[i] = nil
	}
}
