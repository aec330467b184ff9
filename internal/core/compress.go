package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
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

// appendValue appends the little-endian storage form of v to buf.
func appendValue[T grid.Float](buf []byte, v T) []byte {
	switch x := any(v).(type) {
	case float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	case float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// readValues fills dst with len(dst) little-endian values from data.
func readValues[T grid.Float](dst []T, data []byte) error {
	var v T
	eb := 8
	if _, ok := any(v).(float32); ok {
		eb = 4
	}
	if len(data) < len(dst)*eb {
		return fmt.Errorf("core: outlier data truncated")
	}
	if eb == 4 {
		for i := range dst {
			dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
		}
	} else {
		for i := range dst {
			dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
		}
	}
	return nil
}

// Compress encodes g as an STZ stream under cfg.
func Compress[T grid.Float](g *grid.Grid[T], cfg Config) ([]byte, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("core: empty grid")
	}
	if cfg.PartitionOnly {
		return compressPartitionOnly(g, cfg)
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
	l1cfg := codec.Config{EB: cfg.levelEB(1), Radius: cfg.radius()}
	l1blob, err := codec.Compress(base, chain[levels-1], l1cfg)
	if err != nil {
		return nil, fmt.Errorf("core: level-1 %s: %w", base.Name(), err)
	}
	b.Add(l1blob)
	coarseRecon, err := codec.Decompress[T](base, l1blob, 1)
	if err != nil {
		return nil, fmt.Errorf("core: level-1 verify: %w", err)
	}

	// Predicted levels, coarsest to finest.
	for t := levels - 1; t >= 1; t-- {
		fine := chain[t-1]
		lv := levels - t + 1 // paper level of the classes being coded
		eb := cfg.levelEB(lv)
		q := quant.Quantizer{EB: eb, Radius: cfg.radius()}
		var fineRecon *grid.Grid[T]
		if t > 1 {
			fineRecon = leaseGrid(fine.Nz, fine.Ny, fine.Nx)
			fineRecon.InsertStride(coarseRecon, grid.Offset3{}, 2)
		}

		needRecon := t > 1 // the finest level's reconstruction has no consumer
		classes := predictedClasses()
		secs := make([][]byte, len(classes))
		errs := make([]error, len(classes))
		parallel.For(len(classes), workers, func(c int) {
			secs[c], errs[c] = compressClass(fine, fineRecon, coarseRecon, classes[c], q, cfg, needRecon)
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		for _, s := range secs {
			b.Add(s)
		}
		if t > 1 {
			coarseRecon = fineRecon
		}
	}
	return b.Bytes(), nil
}

// compressClass encodes one parity class of the fine grid, writing the
// per-point reconstructions into fineRecon (each class touches a disjoint
// point set, so classes may run concurrently). The quantizing path runs the
// fused predict+quantize kernel: one traversal of the class emitting
// quantization codes (and reconstructions) directly from the prediction
// rows, with all work buffers leased from the scratch arenas.
func compressClass[T grid.Float](fine, fineRecon, coarse *grid.Grid[T],
	off grid.Offset3, q quant.Quantizer, cfg Config, needRecon bool) ([]byte, error) {

	bz, by, bx := classDims(off, fine.Nz, fine.Ny, fine.Nx)
	n := bz * by * bx
	sb := grid.Box{Z1: bz, Y1: by, X1: bx}
	kind := cfg.Predictor

	if cfg.Residual == ResidSZ3 {
		// Ablation path: residual sub-block through the full SZ3 pipeline.
		// The residual bound is tightened by 0.1% so that the float rounding
		// of the final pred+diff recombination stays inside the user bound.
		diffBuf := scratch.LeaseFloat[T](n)
		defer scratch.ReleaseFloat(diffBuf)
		diff := &grid.Grid[T]{Data: diffBuf, Nz: bz, Ny: by, Nx: bx}
		preds := scratch.LeaseFloat[T](bx)
		defer scratch.ReleaseFloat(preds)
		classPredRows(coarse, off, fine.Nz, fine.Ny, fine.Nx, sb, kind, preds,
			func(k, j, ciRow, fineRow int, preds []T) {
				for t, pred := range preds {
					diffBuf[ciRow+t] = fine.Data[fineRow+off.X+2*t] - pred
				}
			})
		blob, err := sz3.Compress(diff, sz3.Options{EB: q.EB * 0.999, Radius: q.Radius})
		if err != nil {
			return nil, err
		}
		// This runs inside the class-parallel pool: keep the nested sz3
		// decode (and its v2 lane decode) serial rather than oversubscribing.
		diffRec, err := sz3.DecompressWorkers[T](blob, 1)
		if err != nil {
			return nil, err
		}
		if needRecon {
			classPredRows(coarse, off, fine.Nz, fine.Ny, fine.Nx, sb, kind, preds,
				func(k, j, ciRow, fineRow int, preds []T) {
					for t, pred := range preds {
						fineRecon.Data[fineRow+off.X+2*t] = pred + diffRec.Data[ciRow+t]
					}
				})
		}
		return blob, nil
	}

	codes := scratch.U16.Lease(n)
	defer scratch.U16.Release(codes)
	elem := 8
	if dtypeOf[T]() == 4 {
		elem = 4
	}
	// Sized for ~12% escapes so outlier-heavy bounds rarely outgrow the
	// lease (append growth past the lease is correct, just unpooled).
	outliers := scratch.Bytes.Lease(64 + n*elem/8)[:0]
	defer func() { scratch.Bytes.Release(outliers) }()
	var nOutliers uint32
	fq := q.Fast()
	preds := scratch.LeaseFloat[T](bx)
	fdata := fine.Data
	if needRecon {
		rdata := fineRecon.Data
		classPredRows(coarse, off, fine.Nz, fine.Ny, fine.Nx, sb, kind, preds,
			func(k, j, ciRow, fineRow int, preds []T) {
				fi := fineRow + off.X
				for t, pred := range preds {
					v := fdata[fi+2*t]
					code, rec, ok := quant.QuantizeFastT(fq, v, float64(pred))
					if !ok {
						outliers = appendValue(outliers, v)
						nOutliers++
						codes[ciRow+t] = 0
						rdata[fi+2*t] = v
						continue
					}
					codes[ciRow+t] = code
					rdata[fi+2*t] = rec
				}
			})
	} else {
		classPredRows(coarse, off, fine.Nz, fine.Ny, fine.Nx, sb, kind, preds,
			func(k, j, ciRow, fineRow int, preds []T) {
				fi := fineRow + off.X
				for t, pred := range preds {
					v := fdata[fi+2*t]
					code, _, ok := quant.QuantizeFastT(fq, v, float64(pred))
					if !ok {
						outliers = appendValue(outliers, v)
						nOutliers++
						codes[ciRow+t] = 0
						continue
					}
					codes[ciRow+t] = code
				}
			})
	}
	scratch.ReleaseFloat(preds)

	if cfg.CodeChunk > 0 {
		// Random-access Huffman: independent chunks, each with its own code
		// table, plus a per-chunk directory of (byte length, outlier base).
		cs := cfg.CodeChunk
		nChunks := (n + cs - 1) / cs
		if n == 0 {
			nChunks = 0
		}
		blobs := make([][]byte, nChunks)
		bases := make([]uint32, nChunks)
		var zeros uint32
		blobBytes := 0
		for c := 0; c < nChunks; c++ {
			lo, hi := c*cs, (c+1)*cs
			if hi > n {
				hi = n
			}
			bases[c] = zeros
			for _, code := range codes[lo:hi] {
				if code == 0 {
					zeros++
				}
			}
			blobs[c] = huffman.EncodeLanes(codes[lo:hi], q.Alphabet())
			blobBytes += len(blobs[c])
		}
		sec := make([]byte, 0, 8+len(outliers)+8*nChunks+blobBytes)
		sec = binary.LittleEndian.AppendUint32(sec, nOutliers)
		sec = append(sec, outliers...)
		sec = binary.LittleEndian.AppendUint32(sec, uint32(nChunks))
		for c := 0; c < nChunks; c++ {
			sec = binary.LittleEndian.AppendUint32(sec, uint32(len(blobs[c])))
			sec = binary.LittleEndian.AppendUint32(sec, bases[c])
		}
		for c := 0; c < nChunks; c++ {
			sec = append(sec, blobs[c]...)
		}
		return sec, nil
	}

	hblob := huffman.EncodeLanes(codes, q.Alphabet())
	sec := make([]byte, 0, 4+len(outliers)+len(hblob))
	sec = binary.LittleEndian.AppendUint32(sec, nOutliers)
	sec = append(sec, outliers...)
	sec = append(sec, hblob...)
	return sec, nil
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
