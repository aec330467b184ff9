package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// write-side mirror of Stats. It is an output, not a knob.
type EncodeStats struct {
	Chain    time.Duration // coarse-chain extraction
	L1Encode time.Duration // level 1 through the base codec
	L1Verify time.Duration // its decode: the reconstruction level 2 is predicted from
	// Per predicted level (index 0 = paper level 2, up to level 4): the
	// predict+quantise sweep, then the class-parallel section builds
	// (Huffman; under ResidSZ3 the whole per-class residual pipeline).
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
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	// Internal grids (the coarse chain and the per-level reconstructions)
	// are backed by scratch leases released when compression finishes; they
	// are fully overwritten before any read, so dirty leases are safe.
	var leased [][]T
	defer func() {
		for _, b := range leased {
			scratch.ReleaseFloat(b)
		}
	}()
	leaseGrid := func(nz, ny, nx int) *grid.Grid[T] {
		buf := scratch.LeaseFloat[T](nz * ny * nx)
		leased = append(leased, buf)
		return &grid.Grid[T]{Data: buf, Nz: nz, Ny: ny, Nx: nx}
	}

	// Coarse chain: chain[0] = g, chain[t] = parity class 0 of chain[t-1].
	levels := cfg.Levels
	chain := make([]*grid.Grid[T], levels)
	chain[0] = g
	for t := 1; t < levels; t++ {
		p := chain[t-1]
		sub := leaseGrid(grid.SubDim(p.Nz, 0, 2), grid.SubDim(p.Ny, 0, 2), grid.SubDim(p.Nx, 0, 2))
		p.ExtractStrideInto(sub, grid.Offset3{}, 2)
		chain[t] = sub
	}
	st.Chain = time.Since(t0)

	var b container.Builder
	codeChunk := cfg.CodeChunk
	if cfg.Residual == ResidSZ3 {
		codeChunk = 0 // the ablation path has no code stream to chunk
	}
	base := codec.MustLookup(cfg.baseCodec())
	hdr := header{
		Version: headerVersion, DType: dtypeOf[T](),
		Levels: levels, Predictor: cfg.Predictor, Residual: cfg.Residual,
		AdaptiveEB: cfg.AdaptiveEB, BaseID: base.ID(), EBRatio: cfg.ebRatio(),
		EB: cfg.EB, Radius: cfg.radius(), CodeChunk: codeChunk,
		Fz: g.Nz, Fy: g.Ny, Fx: g.Nx,
	}
	b.Add(hdr.marshal())

	// Level 1: the deepest coarse sub-block through the base codec (always
	// serial so that parallel and serial STZ produce identical streams).
	t1 := time.Now()
	l1cfg := codec.Config{EB: cfg.levelEB(1), Radius: cfg.radius()}
	l1blob, err := codec.Compress(base, chain[levels-1], l1cfg)
	if err != nil {
		return nil, st, fmt.Errorf("core: level-1 %s: %w", base.Name(), err)
	}
	b.Add(l1blob)
	t2 := time.Now()
	st.L1Encode = t2.Sub(t1)
	coarseRecon, err := codec.Decompress[T](base, l1blob, 1)
	if err != nil {
		return nil, st, fmt.Errorf("core: level-1 verify: %w", err)
	}
	// Nothing else holds the verify grid, so its backing (a scratch lease
	// for the sz3 base) goes back with the others, as in the reader.
	leased = append(leased, coarseRecon.Data)
	st.L1Verify = time.Since(t2)

	// Predicted levels, coarsest to finest.
	for t := levels - 1; t >= 1; t-- {
		fine := chain[t-1]
		p := levels - 1 - t // 0 = paper level 2
		q := quant.Quantizer{EB: cfg.levelEB(p + 2), Radius: cfg.radius()}
		// The finest level's reconstruction has no consumer.
		var fineRecon *grid.Grid[T]
		if t > 1 {
			fineRecon = leaseGrid(fine.Nz, fine.Ny, fine.Nx)
		}
		secs, err := compressLevel(fine, fineRecon, coarseRecon, q, cfg, workers, p, st)
		if err != nil {
			return nil, st, err
		}
		for _, s := range secs {
			b.Add(s)
		}
		coarseRecon = fineRecon
	}
	t3 := time.Now()
	enc := b.Bytes()
	st.Assemble = time.Since(t3)
	return enc, st, nil
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

// compressLevel codes the seven predicted classes of fine against the
// reconstructed coarse grid (predicted level p, 0 = paper level 2) and
// returns their sections in class order. A non-nil fineRecon — a finer
// level will be predicted from it — receives the level's reconstruction,
// coarse lattice included.
//
// One sweep over the coarse rows, parallel over z-blocks, predicts and
// quantises all seven classes: each block writes its own index range of
// the per-class code buffers and collects its escapes per class, so the
// blocks' escapes concatenated in block order are in class order and the
// archive does not depend on the worker count. The section builds (entropy
// coding) then run class-parallel.
func compressLevel[T grid.Float](fine, fineRecon, coarse *grid.Grid[T], q quant.Quantizer,
	cfg Config, workers, p int, st *EncodeStats) ([][]byte, error) {

	t0 := time.Now()
	lv := newLevel[T](fine.Nz, fine.Ny, fine.Nx)
	lv.predictFrom(coarse, grid.Offset3{}, cfg.Predictor)
	secs := make([][]byte, 7)
	if cfg.Residual == ResidSZ3 {
		if fineRecon != nil {
			fineRecon.InsertStride(coarse, grid.Offset3{}, 2)
		}
		errs := make([]error, 7)
		parallel.For(7, workers, func(i int) {
			secs[i], errs[i] = compressClassSZ3(lv, i+1, fine, fineRecon, q)
		})
		st.Entropy[p] = time.Since(t0)
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return secs, nil
	}

	var codes [8][]uint16
	for c := 1; c < 8; c++ {
		codes[c] = scratch.U16.Lease(lv.classLen(c))
	}
	bounds := parallel.Chunks(coarse.Nz, zBlocks(coarse.Nz, workers))
	escapes := make([][8][]byte, len(bounds)-1) // [block][class]
	defer func() {
		for c := 1; c < 8; c++ {
			scratch.U16.Release(codes[c])
		}
		for b := range escapes {
			for _, buf := range escapes[b] {
				scratch.Bytes.Release(buf)
			}
		}
	}()

	whole := lv.subBoxes(grid.FullBox(fine))
	fq := q.Fast()
	fdata := fine.Data
	var rdata []T
	if fineRecon != nil {
		rdata = fineRecon.Data
	}
	parallel.For(len(escapes), workers, func(b int) {
		preds := scratch.LeaseFloat[T](coarse.Nx)
		defer scratch.ReleaseFloat(preds)
		esc := &escapes[b]
		lv.sweep(&whole, bounds[b], bounds[b+1], preds, func(c, k, j, lo, hi int, preds []T) {
			off := grid.Stride2Offsets[c]
			f0 := ((2*k+off.Z)*fine.Ny+2*j+off.Y)*fine.Nx + off.X
			if c == 0 {
				if rdata != nil {
					spread(rdata[f0:], coarse.Data[(k*coarse.Ny+j)*coarse.Nx:][:hi])
				}
				return
			}
			d := lv.dims[c]
			row := codes[c][(k*d[1]+j)*d[2]:][:hi]
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
	})
	t1 := time.Now()
	st.Quantise[p] = t1.Sub(t0)

	// Entropy stage, two balanced steps: seven plans — each class's stream
	// histogrammed and its code built, which fixes every byte's place, so
	// the section is allocated once at its exact size with all but the
	// payload in it — then the 28 lanes written into the sections, each to
	// its final offset.
	elem := int(dtypeOf[T]())
	var plans [7]classPlan
	parallel.For(7, workers, func(i int) {
		plans[i] = planClass(codes[i+1], escapes, i+1, elem, q.Alphabet(), cfg.CodeChunk)
	})
	t2 := time.Now()
	st.Plan[p] = t2.Sub(t1)
	parallel.For(7*huffman.Lanes, workers, func(t int) {
		plans[t/huffman.Lanes].writeLane(t % huffman.Lanes)
	})
	for i := range plans {
		secs[i] = plans[i].release()
		st.Outliers[p] += int(binary.LittleEndian.Uint32(secs[i]))
	}
	st.Entropy[p] = time.Since(t1)
	return secs, nil
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
	blob, err := sz3.Compress(diff, sz3.Options{EB: q.EB * 0.999, Radius: q.Radius})
	if err != nil || fineRecon == nil {
		return blob, err
	}
	// This runs inside the class-parallel pool: keep the nested sz3
	// decode (and its v2 lane decode) serial rather than oversubscribing.
	diffRec, err := sz3.DecompressWorkers[T](blob, 1)
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
