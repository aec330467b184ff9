// Package sz3 reimplements the SZ3 error-bounded lossy compressor in its
// interpolation configuration: level-by-level 1D spline interpolation along
// each axis (cubic not-a-knot where four lattice points exist, linear
// otherwise), linear-scale quantization of the residuals, and Huffman
// encoding of the quantization codes.
//
// It plays two roles in this repository: it is the paper's main baseline,
// and the STZ core uses it to compress the coarsest hierarchical level.
//
// The "OMP" variant used in the paper's Table 3 is reproduced by
// CompressChunked: the grid is split into independent z-chunks compressed
// in parallel, which — exactly as the paper notes for SZ3's OpenMP mode —
// costs compression ratio because chunks lose cross-boundary correlation.
package sz3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stz/internal/fft"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/interp"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/scratch"
)

// Magic identifies a version-1 serial SZ3 stream; MagicChunked a chunked
// one (whose slabs are self-describing serial streams of either version);
// MagicV2 a version-2 serial stream, identical to v1 except that the
// quantization codes are entropy-coded with the multi-lane Huffman payload
// (huffman.EncodeLanes). Writers emit v2; readers accept both.
const (
	Magic        = uint32(0x335a5301) // "SZ3" + version 1
	MagicChunked = uint32(0x335a5302)
	MagicV2      = uint32(0x335a5303)
)

// ErrFormat reports a malformed or mismatching stream.
var ErrFormat = errors.New("sz3: malformed stream")

// Options configures compression.
type Options struct {
	EB      float64 // absolute error bound, must be > 0
	Radius  int32   // quantizer radius; 0 selects quant.DefaultRadius
	Workers int     // >1 enables the chunked "OMP" mode in Compress
	Chunks  int     // number of chunks in chunked mode; 0 means Workers
}

// DefaultOptions returns serial-mode options with the given absolute bound.
func DefaultOptions(eb float64) Options {
	return Options{EB: eb, Radius: quant.DefaultRadius}
}

func (o Options) radius() int32 {
	if o.Radius <= 0 {
		return quant.DefaultRadius
	}
	return o.Radius
}

// dtypeOf returns the element-type tag (4 or 8) for T.
func dtypeOf[T grid.Float]() byte {
	var v T
	switch any(v).(type) {
	case float32:
		return 4
	default:
		return 8
	}
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

// elemBytes returns the storage width of T.
func elemBytes[T grid.Float]() int {
	if dtypeOf[T]() == 4 {
		return 4
	}
	return 8
}

func getValue[T grid.Float](data []byte) (T, int, error) {
	var v T
	switch any(v).(type) {
	case float32:
		if len(data) < 4 {
			return v, 0, ErrFormat
		}
		f := math.Float32frombits(binary.LittleEndian.Uint32(data))
		return T(f), 4, nil
	default:
		if len(data) < 8 {
			return v, 0, ErrFormat
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		return T(f), 8, nil
	}
}

// startStride returns the coarsest interpolation stride for a grid whose
// longest dimension is maxDim: the smallest power of two ≥ maxDim−1, and at
// least 2.
func startStride(maxDim int) int {
	if maxDim <= 2 {
		return 2
	}
	s := fft.NextPow2(maxDim - 1)
	if s < 2 {
		s = 2
	}
	return s
}

// predictAxis predicts the value at linear index idx from its neighbours
// along one axis. step is h lattice spacings in elements, c the coordinate
// along the axis, h the half-stride, n the axis length.
func predictAxis[T grid.Float](data []T, idx, step, c, h, n int) T {
	if c+h < n {
		if c-3*h >= 0 && c+3*h < n {
			return interp.Cubic(data[idx-3*step], data[idx-step], data[idx+step], data[idx+3*step])
		}
		return interp.Linear(data[idx-step], data[idx+step])
	}
	if c-3*h >= 0 {
		// Linear extrapolation from the two previous lattice points.
		return data[idx-step]*3/2 - data[idx-3*step]/2
	}
	return data[idx-step]
}

// forEachPredicted enumerates every non-anchor point in SZ3's traversal
// order (coarse→fine levels; per level, passes along z, then y, then x) and
// calls fn with the point's linear index and the prediction computed from
// rec's already-reconstructed entries.
func forEachPredicted[T grid.Float](rec *grid.Grid[T], fn func(idx int, pred T)) {
	nz, ny, nx := rec.Nz, rec.Ny, rec.Nx
	maxDim := nz
	if ny > maxDim {
		maxDim = ny
	}
	if nx > maxDim {
		maxDim = nx
	}
	if maxDim <= 1 {
		return
	}
	data := rec.Data
	rowY := nx
	rowZ := ny * nx
	for s := startStride(maxDim); s >= 2; s >>= 1 {
		h := s / 2
		// Pass along z: z ≡ h (mod s), y ≡ 0 (mod s), x ≡ 0 (mod s).
		for z := h; z < nz; z += s {
			zi := z * rowZ
			for y := 0; y < ny; y += s {
				base := zi + y*rowY
				for x := 0; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h*rowZ, z, h, nz))
				}
			}
		}
		// Pass along y: z ≡ 0 (mod h), y ≡ h (mod s), x ≡ 0 (mod s).
		for z := 0; z < nz; z += h {
			zi := z * rowZ
			for y := h; y < ny; y += s {
				base := zi + y*rowY
				for x := 0; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h*rowY, y, h, ny))
				}
			}
		}
		// Pass along x: z ≡ 0 (mod h), y ≡ 0 (mod h), x ≡ h (mod s).
		for z := 0; z < nz; z += h {
			zi := z * rowZ
			for y := 0; y < ny; y += h {
				base := zi + y*rowY
				for x := h; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h, x, h, nx))
				}
			}
		}
	}
}

// anchorStride returns the anchor-lattice stride (the coarsest interpolation
// stride) for the grid.
func anchorStride[T grid.Float](g *grid.Grid[T]) int {
	maxDim := g.Nz
	if g.Ny > maxDim {
		maxDim = g.Ny
	}
	if g.Nx > maxDim {
		maxDim = g.Nx
	}
	if maxDim <= 1 {
		return 1
	}
	return startStride(maxDim)
}

// forEachAnchor enumerates the anchor lattice (multiples of the coarsest
// stride in every dimension) in row-major order.
func forEachAnchor[T grid.Float](g *grid.Grid[T], fn func(idx int)) {
	s := anchorStride(g)
	for z := 0; z < g.Nz; z += s {
		for y := 0; y < g.Ny; y += s {
			base := (z*g.Ny + y) * g.Nx
			for x := 0; x < g.Nx; x += s {
				fn(base + x)
			}
		}
	}
}

// Compress encodes g under the given options. With Workers > 1 it uses the
// chunked parallel mode (the paper's SZ3-OMP equivalent); otherwise the
// serial single-stream mode.
func Compress[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if o.Workers > 1 {
		return CompressChunked(g, o)
	}
	return compressSerial(g, o)
}

func compressSerial[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if o.EB <= 0 || math.IsNaN(o.EB) || math.IsInf(o.EB, 0) {
		return nil, fmt.Errorf("sz3: invalid error bound %g", o.EB)
	}
	q := quant.Quantizer{EB: o.EB, Radius: o.radius()}
	fq := q.Fast()
	// The reconstruction grid is scratch: every point is written (anchors
	// verbatim, predicted points from their own quantized residual) before
	// it is ever read, so a dirty lease is safe.
	recData := scratch.LeaseFloat[T](g.Len())
	defer scratch.ReleaseFloat(recData)
	rec := &grid.Grid[T]{Data: recData, Nz: g.Nz, Ny: g.Ny, Nx: g.Nx}
	codes := scratch.U16.Lease(g.Len())[:0]
	defer func() { scratch.U16.Release(codes) }()
	// Sized for ~12% escapes so outlier-heavy bounds rarely outgrow the
	// lease (append growth past the lease is correct, just unpooled).
	outliers := scratch.Bytes.Lease(64 + g.Len()*elemBytes[T]()/8)[:0]
	defer func() { scratch.Bytes.Release(outliers) }()
	var nOutliers uint32

	// Anchors are stored verbatim; the anchor-lattice size is exact.
	as := anchorStride(g)
	nAnchors := grid.SubDim(g.Nz, 0, as) * grid.SubDim(g.Ny, 0, as) * grid.SubDim(g.Nx, 0, as)
	anchors := scratch.Bytes.Lease(nAnchors * elemBytes[T]())[:0]
	defer func() { scratch.Bytes.Release(anchors) }()
	forEachAnchor(g, func(idx int) {
		anchors = appendValue(anchors, g.Data[idx])
		rec.Data[idx] = g.Data[idx]
	})

	forEachPredicted(rec, func(idx int, pred T) {
		code, r, ok := quant.QuantizeFastT(fq, g.Data[idx], float64(pred))
		if !ok {
			outliers = appendValue(outliers, g.Data[idx])
			nOutliers++
			codes = append(codes, 0)
			rec.Data[idx] = g.Data[idx]
			return
		}
		codes = append(codes, code)
		rec.Data[idx] = r
	})

	hblob := huffman.EncodeLanes(codes, q.Alphabet())

	out := make([]byte, 40, 40+len(anchors)+len(outliers)+len(hblob))
	binary.LittleEndian.PutUint32(out[0:], MagicV2)
	out[4] = dtypeOf[T]()
	binary.LittleEndian.PutUint32(out[8:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[12:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[16:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(out[20:], math.Float64bits(o.EB))
	binary.LittleEndian.PutUint32(out[28:], uint32(o.radius()))
	binary.LittleEndian.PutUint32(out[32:], nOutliers)
	binary.LittleEndian.PutUint32(out[36:], uint32(len(hblob)))
	out = append(out, anchors...)
	out = append(out, outliers...)
	out = append(out, hblob...)
	return out, nil
}

// Decompress decodes a stream produced by Compress (either mode). The type
// parameter must match the stream's element type. It uses up to
// parallel.DefaultWorkers goroutines (chunk-parallel for chunked streams,
// lane-parallel entropy decoding for large v2 serial streams); use
// DecompressWorkers to bound parallelism explicitly.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	return DecompressWorkers[T](data, 0)
}

// DecompressWorkers decodes a stream produced by Compress (either mode)
// with up to workers goroutines (0 selects parallel.DefaultWorkers).
func DecompressWorkers[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	if len(data) < 4 {
		return nil, ErrFormat
	}
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	switch binary.LittleEndian.Uint32(data) {
	case Magic, MagicV2:
		return decompressSerial[T](data, workers)
	case MagicChunked:
		return DecompressChunked[T](data, workers)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
}

func decompressSerial[T grid.Float](data []byte, laneWorkers int) (*grid.Grid[T], error) {
	nz, ny, nx, _, err := parseSerialDims[T](data)
	if err != nil {
		return nil, err
	}
	// The result grid is backed by a scratch lease: callers that consume it
	// transiently (the streaming reader, the chunk-parallel decoder) hand
	// the buffer back; long-lived results simply never release it.
	rec := &grid.Grid[T]{Data: scratch.LeaseFloat[T](nz * ny * nx), Nz: nz, Ny: ny, Nx: nx}
	if err := decompressSerialInto(data, rec, laneWorkers); err != nil {
		scratch.ReleaseFloat(rec.Data)
		return nil, err
	}
	return rec, nil
}

// parseSerialDims validates the serial-stream header and returns the dims
// and the format version (1 or 2).
func parseSerialDims[T grid.Float](data []byte) (nz, ny, nx, version int, err error) {
	if len(data) < 40 {
		return 0, 0, 0, 0, ErrFormat
	}
	switch binary.LittleEndian.Uint32(data) {
	case Magic:
		version = 1
	case MagicV2:
		version = 2
	default:
		return 0, 0, 0, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if data[4] != dtypeOf[T]() {
		return 0, 0, 0, 0, fmt.Errorf("%w: element type mismatch", ErrFormat)
	}
	nz = int(binary.LittleEndian.Uint32(data[8:]))
	ny = int(binary.LittleEndian.Uint32(data[12:]))
	nx = int(binary.LittleEndian.Uint32(data[16:]))
	if err := checkElems(nz, ny, nx, len(data)); err != nil {
		return 0, 0, 0, 0, err
	}
	return nz, ny, nx, version, nil
}

// checkElems bounds the dims a header claims by what its stream can hold.
// Every point costs at least one payload bit — an anchor its verbatim
// value, a predicted point one Huffman bit — so a point count beyond the
// stream's bit length is structurally impossible. Rejecting it (with an
// overflow-safe product) before the output grid is sized keeps a few
// corrupt header bytes from demanding gigabytes.
func checkElems(nz, ny, nx, streamBytes int) error {
	z, y, x, limit := int64(nz), int64(ny), int64(nx), 8*int64(streamBytes)
	if (y > 0 && z > limit/y) || (x > 0 && z*y > limit/x) {
		return fmt.Errorf("%w: %d×%d×%d points in a %d-byte stream", ErrFormat, nz, ny, nx, streamBytes)
	}
	return nil
}

// decompressSerialInto decodes a serial stream into rec, whose dimensions
// must match the stream header (the chunk-parallel decoder passes
// zero-copy slab views of the full output grid). Every element of rec is
// overwritten on success. laneWorkers bounds the lane-parallel entropy
// decode of v2 streams (chunk-parallel callers pass 1: the chunks already
// occupy the pool).
func decompressSerialInto[T grid.Float](data []byte, rec *grid.Grid[T], laneWorkers int) error {
	nz, ny, nx, version, err := parseSerialDims[T](data)
	if err != nil {
		return err
	}
	if rec.Nz != nz || rec.Ny != ny || rec.Nx != nx {
		return fmt.Errorf("%w: dims mismatch", ErrFormat)
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(data[20:]))
	radius := int32(binary.LittleEndian.Uint32(data[28:]))
	nOutliers := int(binary.LittleEndian.Uint32(data[32:]))
	hlen := int(binary.LittleEndian.Uint32(data[36:]))
	// Codes are uint16, so a larger radius only sizes a bigger code table.
	if radius <= 0 || radius > quant.DefaultRadius || !(eb > 0) {
		return ErrFormat
	}
	q := quant.Quantizer{EB: eb, Radius: radius}

	pos := 40
	var ferr error
	forEachAnchor(rec, func(idx int) {
		if ferr != nil {
			return
		}
		v, n, err := getValue[T](data[pos:])
		if err != nil {
			ferr = err
			return
		}
		rec.Data[idx] = v
		pos += n
	})
	if ferr != nil {
		return ferr
	}

	outBytes := nOutliers * elemBytes[T]()
	if pos+outBytes+hlen > len(data) {
		return ErrFormat
	}
	outlierData := data[pos : pos+outBytes]
	hblob := data[pos+outBytes : pos+outBytes+hlen]

	// The code count equals the predicted-point count (≤ Len), so a lease
	// of Len elements lets the decoder skip its output allocation.
	codesBuf := scratch.U16.Lease(rec.Len())
	defer scratch.U16.Release(codesBuf)
	var codes []uint16
	if version >= 2 {
		codes, err = huffman.DecodeLanesInto(codesBuf[:0], hblob, q.Alphabet(), laneWorkers)
	} else {
		codes, err = huffman.DecodeInto(codesBuf[:0], hblob, q.Alphabet())
	}
	if err != nil {
		return fmt.Errorf("sz3: %w", err)
	}

	ci, oi := 0, 0
	forEachPredicted(rec, func(idx int, pred T) {
		if ferr != nil {
			return
		}
		if ci >= len(codes) {
			ferr = fmt.Errorf("%w: code stream exhausted", ErrFormat)
			return
		}
		code := codes[ci]
		ci++
		if code == 0 {
			v, n, err := getValue[T](outlierData[oi:])
			if err != nil {
				ferr = err
				return
			}
			oi += n
			rec.Data[idx] = v
			return
		}
		rec.Data[idx] = quant.DequantizeT[T](q, code, float64(pred))
	})
	if ferr != nil {
		return ferr
	}
	if ci != len(codes) {
		return fmt.Errorf("%w: %d unused codes", ErrFormat, len(codes)-ci)
	}
	return nil
}

// CompressChunked is the SZ3-OMP equivalent: the grid is split along its z
// axis into independent chunks compressed in parallel.
func CompressChunked[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if o.EB <= 0 || math.IsNaN(o.EB) || math.IsInf(o.EB, 0) {
		return nil, fmt.Errorf("sz3: invalid error bound %g", o.EB)
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	nChunks := o.Chunks
	if nChunks <= 0 {
		nChunks = workers
	}
	bounds := parallel.Chunks(g.Nz, nChunks)
	nChunks = len(bounds) - 1
	blobs := make([][]byte, nChunks)
	errs := make([]error, nChunks)
	serialOpts := o
	serialOpts.Workers = 0
	plane := g.Ny * g.Nx
	parallel.For(nChunks, workers, func(c int) {
		lo, hi := bounds[c], bounds[c+1]
		// z-slabs are contiguous in the row-major layout, so each chunk is
		// a zero-copy view — no per-chunk slab allocation.
		sub, err := grid.FromData(g.Data[lo*plane:hi*plane], hi-lo, g.Ny, g.Nx)
		if err != nil {
			errs[c] = err
			return
		}
		blobs[c], errs[c] = compressSerial(sub, serialOpts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 24 + 4*nChunks
	for _, b := range blobs {
		total += len(b)
	}
	out := make([]byte, 24, total)
	binary.LittleEndian.PutUint32(out[0:], MagicChunked)
	out[4] = dtypeOf[T]()
	binary.LittleEndian.PutUint32(out[8:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[12:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[16:], uint32(g.Nx))
	binary.LittleEndian.PutUint32(out[20:], uint32(nChunks))
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
	}
	for _, b := range blobs {
		out = append(out, b...)
	}
	return out, nil
}

// DecompressBox decodes only the region b of a stream produced by Compress
// (either mode) — native random access. For chunked ("OMP") streams the
// z-slab chunks give genuine sub-stream addressing: only the slabs whose
// plane range intersects b are entropy-decoded and reconstructed, the rest
// of the payload is never touched. Serial streams have one global
// interpolation traversal, so they are fully decoded and the box windowed
// out; the result is bit-identical to the same region of Decompress in
// both cases. The box must lie entirely inside the stream's grid — callers
// wanting clip semantics clip first (the codec layer validates with
// codec.CheckBox before dispatching here).
func DecompressBox[T grid.Float](data []byte, b grid.Box, workers int) (*grid.Grid[T], error) {
	if len(data) < 4 {
		return nil, ErrFormat
	}
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if binary.LittleEndian.Uint32(data) != MagicChunked {
		g, err := decompressSerial[T](data, workers)
		if err != nil {
			return nil, err
		}
		defer scratch.ReleaseFloat(g.Data)
		if err := checkBox(b, g.Nz, g.Ny, g.Nx); err != nil {
			return nil, err
		}
		return g.ExtractBox(b), nil
	}

	nz, ny, nx, offs, bounds, err := parseChunkedDir[T](data)
	if err != nil {
		return nil, err
	}
	if err := checkBox(b, nz, ny, nx); err != nil {
		return nil, err
	}
	// Collect the slabs intersecting the box's plane range; everything else
	// is skipped without being read.
	var need []int
	for c := 0; c+1 < len(bounds); c++ {
		if bounds[c] < b.Z1 && bounds[c+1] > b.Z0 {
			need = append(need, c)
		}
	}
	out := grid.New[T](b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
	errs := make([]error, len(need))
	parallel.For(len(need), workers, func(i int) {
		c := need[i]
		lo, hi := bounds[c], bounds[c+1]
		slab := &grid.Grid[T]{Data: scratch.LeaseFloat[T]((hi - lo) * ny * nx), Nz: hi - lo, Ny: ny, Nx: nx}
		defer scratch.ReleaseFloat(slab.Data)
		if err := decompressSerialInto(data[offs[c]:offs[c+1]], slab, 1); err != nil {
			errs[i] = err
			return
		}
		out.CopyBoxFromSlab(slab, b, lo)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkBox rejects empty, inverted or out-of-bounds boxes (the package
// cannot import the codec layer's canonical CheckBox without a cycle, so
// it applies the same rule locally).
func checkBox(b grid.Box, nz, ny, nx int) error {
	if b.Z1 <= b.Z0 || b.Y1 <= b.Y0 || b.X1 <= b.X0 ||
		b.Z0 < 0 || b.Y0 < 0 || b.X0 < 0 ||
		b.Z1 > nz || b.Y1 > ny || b.X1 > nx {
		return fmt.Errorf("sz3: invalid box %d:%d,%d:%d,%d:%d for %d×%d×%d grid",
			b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1, nz, ny, nx)
	}
	return nil
}

// parseChunkedDir validates a chunked-stream header and returns the grid
// dims, the per-chunk payload byte ranges (offs[c]..offs[c+1]) and the
// z-slab plane boundaries. It is the single parser behind both the full
// chunked decoder and the random-access box decoder.
func parseChunkedDir[T grid.Float](data []byte) (nz, ny, nx int, offs, bounds []int, err error) {
	if len(data) < 24 || binary.LittleEndian.Uint32(data) != MagicChunked {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad chunked magic", ErrFormat)
	}
	if data[4] != dtypeOf[T]() {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: element type mismatch", ErrFormat)
	}
	nz = int(binary.LittleEndian.Uint32(data[8:]))
	ny = int(binary.LittleEndian.Uint32(data[12:]))
	nx = int(binary.LittleEndian.Uint32(data[16:]))
	nChunks := int(binary.LittleEndian.Uint32(data[20:]))
	if nChunks <= 0 || nChunks > nz+1 {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad chunk count", ErrFormat)
	}
	if err := checkElems(nz, ny, nx, len(data)); err != nil {
		return 0, 0, 0, nil, nil, err
	}
	pos := 24
	if pos+4*nChunks > len(data) {
		return 0, 0, 0, nil, nil, ErrFormat
	}
	offs = make([]int, nChunks+1)
	offs[0] = pos + 4*nChunks
	for c := 0; c < nChunks; c++ {
		offs[c+1] = offs[c] + int(binary.LittleEndian.Uint32(data[pos+4*c:]))
	}
	if offs[nChunks] > len(data) {
		return 0, 0, 0, nil, nil, ErrFormat
	}
	bounds = parallel.Chunks(nz, nChunks)
	if len(bounds)-1 != nChunks {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: chunk bounds mismatch", ErrFormat)
	}
	return nz, ny, nx, offs, bounds, nil
}

// DecompressChunked decodes a chunked stream, using up to workers
// goroutines (0 selects parallel.DefaultWorkers).
func DecompressChunked[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	nz, ny, nx, offs, bounds, err := parseChunkedDir[T](data)
	if err != nil {
		return nil, err
	}
	nChunks := len(bounds) - 1
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	out := grid.New[T](nz, ny, nx)
	errs := make([]error, nChunks)
	plane := ny * nx
	parallel.For(nChunks, workers, func(c int) {
		// Decode straight into the chunk's zero-copy slab view of the
		// output grid — no per-chunk grid allocation or copy-out pass.
		lo, hi := bounds[c], bounds[c+1]
		sub, err := grid.FromData(out.Data[lo*plane:hi*plane], hi-lo, ny, nx)
		if err != nil {
			errs[c] = err
			return
		}
		// Chunks already occupy the worker pool, so each chunk's v2 lane
		// decode runs on the register-resident single-thread interleave.
		errs[c] = decompressSerialInto(data[offs[c]:offs[c+1]], sub, 1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
