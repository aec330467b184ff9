// Package sz3 reimplements the SZ3 error-bounded lossy compressor in its
// interpolation configuration: level-by-level 1D spline interpolation along
// each axis (cubic not-a-knot where four lattice points exist, linear
// otherwise), linear-scale quantization of the residuals, and Huffman
// encoding of the quantization codes.
//
// It plays two roles in this repository: it is the paper's main baseline,
// and the STZ core uses it to compress the coarsest hierarchical level.
//
// The "OMP" variant used in the paper's Table 3 is reproduced by Compress
// with Workers > 1: the grid is split into independent z-chunks compressed
// in parallel, which — exactly as the paper notes for SZ3's OpenMP mode —
// costs compression ratio because chunks lose cross-boundary correlation.
package sz3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"stz/internal/fft"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/interp"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// Magic identifies a version-1 serial SZ3 stream; MagicChunked a chunked
// one (whose slabs are self-describing serial streams of any version);
// MagicV2 a version-2 serial stream, identical to v1 except that the
// quantization codes are entropy-coded with the multi-lane Huffman payload
// (huffman.EncodeLanes); MagicV3 a version-3 serial stream, whose codes are
// one Huffman lane per brick of each interpolation level (lanes.go).
// Writers emit v3; readers accept all three.
const (
	Magic        = uint32(0x335a5301) // "SZ3" + version 1
	MagicChunked = uint32(0x335a5302)
	MagicV2      = uint32(0x335a5303)
	MagicV3      = uint32(0x335a5304)
)

// ErrFormat reports a malformed or mismatching stream.
var ErrFormat = errors.New("sz3: malformed stream")

// Options configures compression.
type Options struct {
	EB      float64 // absolute error bound, must be > 0
	Radius  int32   // quantizer radius, at most quant.DefaultRadius; 0 selects it
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
		return T(data[idx-step]*3/2) - T(data[idx-3*step]/2)
	}
	return data[idx-step]
}

// line is one x-line of one interpolation pass: n points idx, idx+stride, …
// that share (z, y), each predicted along the pass's axis from the points
// step and 3·step elements to either side of it. Those neighbours lie on the
// coarser lattice along the axis, so no point of a pass reads another point
// of the same pass: a whole line can be predicted before any of it is
// reconstructed, which is what makes a line a kernel.
type line struct {
	idx, n, stride int // first linear index, point count, element stride
	step           int // h lattice spacings along the pass's axis, in elements
	c, dc          int // axis coordinate of the first point and its advance per point (0 unless the axis is x)
	h, axisLen     int // half-stride and length of the pass's axis
	pass           int // 3·level + axis (z, y, x): the pass's slot in passNeeds
	z, y, x0       int // grid coordinates of the first point
}

// forEachLine enumerates every non-anchor point in SZ3's traversal order
// (coarse→fine levels; per level, passes along z, then y, then x; row-major
// within a pass), one call per x-line. The line is one value updated in
// place and passed by pointer, so no call copies it. With needs non-nil it
// enumerates a cone instead (passNeeds): only the lines with points inside
// their pass's need-box, each cut to those points, so what it costs is the
// cone's lines, not the grid's.
func forEachLine(nz, ny, nx int, needs *[maxPasses]grid.Box, fn func(ln *line)) {
	maxDim := max(nz, ny, nx)
	if maxDim <= 1 {
		return
	}
	rowY, rowZ := nx, ny*nx
	pass := 0
	var ln line
	// cut returns pass p's box and cuts the pass's lines, whose points sit
	// at x ≡ off (mod s), to the box along x: ln.n and ln.x0 are those of
	// every line of the pass.
	cut := func(p, off, s int) grid.Box {
		b := grid.Box{Z1: nz, Y1: ny, X1: nx}
		if needs != nil {
			b = needs[p]
		}
		n := grid.SubDim(nx, off, s)
		lo := min(grid.SubDim(b.X0, off, s), n)
		ln.n, ln.x0 = min(grid.SubDim(b.X1, off, s), n)-lo, off+lo*s
		return b
	}
	for s := startStride(maxDim); s >= 2; s >>= 1 {
		h := s / 2
		// Pass along z: z ≡ h (mod s), y ≡ 0 (mod s), x ≡ 0 (mod s).
		ln = line{stride: s, step: h * rowZ, h: h, axisLen: nz, pass: pass}
		b := cut(pass, 0, s)
		for z := ceilTo(b.Z0, h, s); z < b.Z1 && ln.n > 0; z += s {
			for y := ceilTo(b.Y0, 0, s); y < b.Y1; y += s {
				ln.idx, ln.c, ln.z, ln.y = z*rowZ+y*rowY+ln.x0, z, z, y
				fn(&ln)
			}
		}
		// Pass along y: z ≡ 0 (mod h), y ≡ h (mod s), x ≡ 0 (mod s).
		ln = line{stride: s, step: h * rowY, h: h, axisLen: ny, pass: pass + 1}
		b = cut(pass+1, 0, s)
		for z := ceilTo(b.Z0, 0, h); z < b.Z1 && ln.n > 0; z += h {
			for y := ceilTo(b.Y0, h, s); y < b.Y1; y += s {
				ln.idx, ln.c, ln.z, ln.y = z*rowZ+y*rowY+ln.x0, y, z, y
				fn(&ln)
			}
		}
		// Pass along x: z ≡ 0 (mod h), y ≡ 0 (mod h), x ≡ h (mod s).
		ln = line{stride: s, step: h, dc: s, h: h, axisLen: nx, pass: pass + 2}
		b = cut(pass+2, h, s)
		ln.c = ln.x0
		for z := ceilTo(b.Z0, 0, h); z < b.Z1 && ln.n > 0; z += h {
			for y := ceilTo(b.Y0, 0, h); y < b.Y1; y += h {
				ln.idx, ln.z, ln.y = z*rowZ+y*rowY+ln.x0, z, y
				fn(&ln)
			}
		}
		pass += 3
	}
}

// ceilTo is the first coordinate ≥ lo that is ≡ off (mod s), s a power of
// two.
func ceilTo(lo, off, s int) int { return lo + (off-lo)&(s-1) }

// predictLine fills preds[:ln.n] with the predictions of ln's points from
// data's already-reconstructed entries. The cubic case needs c−3h ≥ 0 and
// c+3h < axisLen: all of the line or none of it when the axis coordinate is
// fixed, one interior run [t0, t1) when it advances with x. That run is a
// strided loop over the four operand slices; its summation order is
// interp.Cubic's, which is part of the format. Boundary points go through
// predictAxis.
func predictLine[T grid.Float](data []T, ln *line, preds []T) {
	n, h, step, stride := ln.n, ln.h, ln.step, ln.stride
	preds = preds[:n]
	t0, t1 := 0, 0
	switch {
	case ln.dc > 0:
		// The line's points below 3h, and below axisLen−3h.
		t0 = min(grid.SubDim(3*h, ln.c, ln.dc), n)
		t1 = max(t0, min(grid.SubDim(ln.axisLen-3*h, ln.c, ln.dc), n))
	case ln.c-3*h >= 0 && ln.c+3*h < ln.axisLen:
		t1 = n
	}
	for t := 0; t < t0; t++ {
		preds[t] = predictAxis(data, ln.idx+t*stride, step, ln.c+t*ln.dc, h, ln.axisLen)
	}
	if t1 > t0 {
		i := ln.idx + t0*stride
		p0, p1, p2, p3 := data[i-3*step:], data[i-step:], data[i+step:], data[i+3*step:]
		j := 0
		for t := t0; t < t1; t++ {
			preds[t] = interp.Cubic(p0[j], p1[j], p2[j], p3[j])
			j += stride
		}
	}
	for t := t1; t < n; t++ {
		preds[t] = predictAxis(data, ln.idx+t*stride, step, ln.c+t*ln.dc, h, ln.axisLen)
	}
}

// maxPasses bounds the pass count: three per level, one level per bit of a
// uint32 header dimension.
const maxPasses = 3 * 32

// passNeeds fills needs[p] with the box of pass p's points that a decode of
// b has to reconstruct — the box's dependency cone, one slice per pass. It
// walks the passes backwards from b: a pass reconstructs its points inside
// the current box, and since each of them reads up to 3h along the pass's
// axis, every earlier pass must cover the box widened by 3h along that axis
// (clipped to the grid). Boxes only grow going backwards, so a point needed
// by a later pass is inside the need-box of the pass that writes it. For
// the whole-grid box every need-box is the whole grid.
func passNeeds(nz, ny, nx int, b grid.Box, needs *[maxPasses]grid.Box) {
	s0 := startStride(max(nz, ny, nx))
	p := 3 * (bits.Len(uint(s0)) - 1)
	for h := 1; h < s0; h <<= 1 {
		needs[p-1] = b
		b.X0, b.X1 = max(b.X0-3*h, 0), min(b.X1+3*h, nx)
		needs[p-2] = b
		b.Y0, b.Y1 = max(b.Y0-3*h, 0), min(b.Y1+3*h, ny)
		needs[p-3] = b
		b.Z0, b.Z1 = max(b.Z0-3*h, 0), min(b.Z1+3*h, nz)
		p -= 3
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

// anchorCount returns the size of the anchor lattice.
func anchorCount[T grid.Float](g *grid.Grid[T]) int {
	s := anchorStride(g)
	return grid.SubDim(g.Nz, 0, s) * grid.SubDim(g.Ny, 0, s) * grid.SubDim(g.Nx, 0, s)
}

// Compress encodes g under the given options. With Workers > 1 it uses the
// chunked parallel mode (the paper's SZ3-OMP equivalent); otherwise the
// serial single-stream mode.
func Compress[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	return compress(g, o, nil)
}

// CompressRecon is Compress handing back, beside the stream, the grid a
// decoder reconstructs from it. The encoder predicts every point from that
// very reconstruction, which it builds point by point with the decoder's
// arithmetic, so the grid is bit-identical to Decompress's and a caller that
// needs both skips the decode. Like Decompress's, it is backed by a scratch
// lease that a transient consumer hands back.
func CompressRecon[T grid.Float](g *grid.Grid[T], o Options) ([]byte, *grid.Grid[T], error) {
	rec := &grid.Grid[T]{Data: scratch.LeaseFloat[T](g.Len()), Nz: g.Nz, Ny: g.Ny, Nx: g.Nx}
	enc, err := compress(g, o, rec.Data)
	if err != nil {
		scratch.ReleaseFloat(rec.Data)
		return nil, nil, err
	}
	return enc, rec, nil
}

// compress encodes g in the mode o selects, reconstructing into rec: g's
// length (dirty is fine: every point is written before it is read), or nil
// when the caller does not want the reconstruction.
func compress[T grid.Float](g *grid.Grid[T], o Options, rec []T) ([]byte, error) {
	if o.EB <= 0 || math.IsNaN(o.EB) || math.IsInf(o.EB, 0) {
		return nil, fmt.Errorf("sz3: invalid error bound %g", o.EB)
	}
	// Codes are uint16, and the decoders refuse a larger radius.
	if o.Radius > quant.DefaultRadius {
		return nil, fmt.Errorf("sz3: radius %d above %d", o.Radius, quant.DefaultRadius)
	}
	if o.Workers > 1 {
		return compressChunked(g, o, rec)
	}
	return compressSerial(g, o, rec)
}

// compressSerial encodes g as one serial stream, writing the decoder's
// reconstruction into rec (nil: a scratch lease) as it goes: anchors
// verbatim, predicted points from their own quantized residual.
func compressSerial[T grid.Float](g *grid.Grid[T], o Options, rec []T) ([]byte, error) {
	if rec == nil {
		rec = scratch.LeaseFloat[T](g.Len())
		defer scratch.ReleaseFloat(rec)
	}
	q := quant.Quantizer{EB: o.EB, Radius: o.radius()}
	fq := q.Fast()
	// The longest line is a finest-level one: every other point of an x-row.
	row := scratch.LeaseFloat[T]((g.Nx + 1) / 2)
	defer scratch.ReleaseFloat(row)
	lineCodes := scratch.U16.Lease((g.Nx + 1) / 2)
	defer scratch.U16.Release(lineCodes)
	// Sized for ~12% escapes so outlier-heavy bounds rarely outgrow the
	// lease (append growth past the lease is correct, just unpooled).
	outliers := scratch.Bytes.Lease(64 + g.Len()*rawio.ElemSize[T]()/8)[:0]
	defer func() { scratch.Bytes.Release(outliers) }()

	// Anchors are stored verbatim; the anchor-lattice size is exact.
	anchors := scratch.Bytes.Lease(anchorCount(g) * rawio.ElemSize[T]())[:0]
	defer func() { scratch.Bytes.Release(anchors) }()
	forEachAnchor(g, func(idx int) {
		anchors = rawio.AppendValues(anchors, g.Data[idx])
		rec[idx] = g.Data[idx]
	})

	// Codes go straight to their lanes: starts[l] is lane l's first code,
	// and a lane's codes are in traversal order, so one cursor a lane
	// places them.
	tl := newTiling(g.Nz, g.Ny, g.Nx)
	starts := make([]int, tl.lanes+1)
	for l, n := range tl.laneCodes() {
		starts[l+1] = starts[l] + n
	}
	cur := append([]int(nil), starts[:tl.lanes]...)
	codes := scratch.U16.Lease(starts[tl.lanes])
	defer scratch.U16.Release(codes)
	// The lane of each escape, in traversal order: lane order within a lane.
	var escLanes []int32
	forEachLine(g.Nz, g.Ny, g.Nx, nil, func(ln *line) {
		preds, lc := row[:ln.n], lineCodes[:ln.n]
		predictLine(rec, ln, preds)
		// The whole line is quantised in one call; its brick rows then go
		// to their lanes.
		escapes := quant.QuantizeRow(fq, g.Data[ln.idx:], ln.stride, preds, lc, rec[ln.idx:])
		for l, t := tl.lane(ln.pass, ln.z, ln.y), 0; t < ln.n; l, t = l+1, t+brickCols {
			bc := lc[t:min(t+brickCols, ln.n)]
			cur[l] += copy(codes[cur[l]:], bc)
			if escapes == 0 {
				continue
			}
			// Escapes are rare: their values are gathered from the zero
			// codes in a second pass over the lines that have any.
			for k, code := range bc {
				if code == 0 {
					outliers = rawio.AppendValues(outliers, g.Data[ln.idx+(t+k)*ln.stride])
					escLanes = append(escLanes, int32(l))
				}
			}
		}
	})
	nOutliers := len(escLanes)

	code := huffman.NewCode(codes[:starts[tl.lanes]], q.Alphabet())
	defer code.Release()
	elem := rawio.ElemSize[T]()
	out := make([]byte, 40, 40+len(anchors)+len(outliers))
	binary.LittleEndian.PutUint32(out[0:], MagicV3)
	out[4] = byte(elem)
	binary.LittleEndian.PutUint32(out[8:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[12:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[16:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(out[20:], math.Float64bits(o.EB))
	binary.LittleEndian.PutUint32(out[28:], uint32(o.radius()))
	binary.LittleEndian.PutUint32(out[32:], uint32(nOutliers))
	out = append(out, anchors...)
	// The escape values in lane order: a counting sort of the traversal's
	// by lane, stable, so each lane's stay in its own order.
	escN := make([]int, tl.lanes)
	if nOutliers > 0 {
		for _, l := range escLanes {
			escN[l]++
		}
		at := make([]int, tl.lanes)
		for l := 1; l < tl.lanes; l++ {
			at[l] = at[l-1] + escN[l-1]
		}
		vals := out[len(out):][:len(outliers)]
		for i, l := range escLanes {
			copy(vals[at[l]*elem:][:elem], outliers[i*elem:])
			at[l]++
		}
		out = out[:len(out)+len(outliers)]
	}
	// The code section: a laned section, one lane a brick. The lanes pad
	// to a byte each, and the last one written needs room for its bound,
	// not only its bytes.
	hoff := len(out)
	out = slices.Grow(out, len(code.Header())+4*tl.lanes+(code.Bits()+7)/8+tl.lanes+code.LaneBound(brickZ*brickY*brickX))
	out, dir := code.AppendHead(out, tl.lanes)
	for l := 0; l < tl.lanes; l++ {
		n := code.WriteLane(out[len(out):cap(out)], codes[starts[l]:starts[l+1]])
		dir.Set(l, n, escN[l])
		out = out[:len(out)+n]
	}
	binary.LittleEndian.PutUint32(out[36:], uint32(len(out)-hoff))
	return out, nil
}

// Decompress decodes a stream produced by Compress (either mode). The type
// parameter must match the stream's element type. It uses up to
// parallel.DefaultWorkers goroutines (chunk-parallel for chunked streams,
// lane-parallel entropy decoding for large serial streams); use
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
	case Magic, MagicV2, MagicV3:
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
	sd, err := openSerial[T](data, grid.Box{Z1: nz, Y1: ny, X1: nx}, laneWorkers)
	if err != nil {
		return nil, err
	}
	defer sd.release()
	// The result grid is backed by a scratch lease: callers that consume it
	// transiently (the streaming reader, the chunk-parallel decoder) hand
	// the buffer back; long-lived results simply never release it.
	rec := &grid.Grid[T]{Data: scratch.LeaseFloat[T](nz * ny * nx), Nz: nz, Ny: ny, Nx: nx}
	if err := sd.reconstruct(rec); err != nil {
		scratch.ReleaseFloat(rec.Data)
		return nil, err
	}
	return rec, nil
}

// Dims returns the grid dims a stream produced by Compress (either mode)
// declares, validated as the decoders validate them, without decoding
// anything: what a caller that receives a box-sized grid from DecompressBox
// checks the stream against first.
func Dims(data []byte) (nz, ny, nx int, err error) {
	if len(data) > 4 && data[4] == 4 {
		return dims[float32](data)
	}
	return dims[float64](data)
}

func dims[T grid.Float](data []byte) (nz, ny, nx int, err error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == MagicChunked {
		nz, ny, nx, _, _, err = parseChunkedDir[T](data)
	} else {
		nz, ny, nx, _, err = parseSerialDims[T](data)
	}
	return nz, ny, nx, err
}

// parseSerialDims validates the serial-stream header and returns the dims
// and the format version (1, 2 or 3).
func parseSerialDims[T grid.Float](data []byte) (nz, ny, nx, version int, err error) {
	if len(data) < 40 {
		return 0, 0, 0, 0, ErrFormat
	}
	switch binary.LittleEndian.Uint32(data) {
	case Magic:
		version = 1
	case MagicV2:
		version = 2
	case MagicV3:
		version = 3
	default:
		return 0, 0, 0, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if int(data[4]) != rawio.ElemSize[T]() {
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

// serialDecode is a serial stream opened for one box: its header, the
// box's dependency cone — one need-box per pass (passNeeds) — and the codes
// the cone reads, entropy-decoded into the v3 lane layout. Opening is
// everything that can fail on a bad stream but for the escapes' own
// checks, so the grid a decode reconstructs into is sized only once the
// stream has been.
type serialDecode[T grid.Float] struct {
	nz, ny, nx        int
	q                 quant.Quantizer
	anchors, outliers []byte
	needs             [maxPasses]grid.Box
	tl                tiling
	lanes             laneDecode[T]
}

// openSerial opens the serial stream data for the box b, which must be a
// valid box of its grid (checkBox). A version-3 stream entropy-decodes only
// the lanes that hold a code of the cone (tiling.mark); a v1 or v2 stream
// decodes whole and is dealt into the same lanes (decodeLegacy).
// laneWorkers bounds the lane-parallel entropy decode (chunk-parallel
// callers pass 1: the chunks already occupy the pool). The decode must be
// released.
func openSerial[T grid.Float](data []byte, b grid.Box, laneWorkers int) (*serialDecode[T], error) {
	nz, ny, nx, version, err := parseSerialDims[T](data)
	if err != nil {
		return nil, err
	}
	if err := checkBox(b, nz, ny, nx); err != nil {
		return nil, err
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(data[20:]))
	radius := int32(binary.LittleEndian.Uint32(data[28:]))
	nOutliers := int(binary.LittleEndian.Uint32(data[32:]))
	hlen := int(binary.LittleEndian.Uint32(data[36:]))
	// Codes are uint16, so a larger radius only sizes a bigger code table.
	if radius <= 0 || radius > quant.DefaultRadius || !(eb > 0) {
		return nil, ErrFormat
	}
	sd := &serialDecode[T]{nz: nz, ny: ny, nx: nx, q: quant.Quantizer{EB: eb, Radius: radius}, tl: newTiling(nz, ny, nx)}

	// The sections' sizes are known up front: the anchor lattice is exact.
	elem := rawio.ElemSize[T]()
	outliers := 40 + anchorCount(&grid.Grid[T]{Nz: nz, Ny: ny, Nx: nx})*elem
	hoff := outliers + nOutliers*elem
	if hoff+hlen > len(data) {
		return nil, ErrFormat
	}
	sd.anchors, sd.outliers = data[40:outliers], data[outliers:hoff]
	passNeeds(nz, ny, nx, b, &sd.needs)
	sec := data[hoff : hoff+hlen]
	if version == 3 {
		err = sd.decodeLanes(sec, laneWorkers)
	} else {
		err = sd.decodeLegacy(sec, version, laneWorkers)
	}
	if err != nil {
		return nil, err
	}
	return sd, nil
}

func (sd *serialDecode[T]) release() { sd.lanes.release() }

// reconstruct is the one decoder. It reconstructs into rec, whose dims
// are the stream's, exactly the points the opened box depends on: its
// cone. A full decode is the whole-grid box, whose cone is every point.
// For any other box rec is dirty outside the cone — only the box's window
// of it means anything afterwards — and since the decoder never reads a
// point it has not written, rec may be a dirty lease. It walks only the
// cone's lines, and each reads its codes brick column by brick column,
// each at its own position in its brick's lane, so the lines and bricks
// outside the cone cost nothing. A corrupt v3 stream can therefore fail a
// box whose cone reaches the damage and still serve one whose cone does
// not.
func (sd *serialDecode[T]) reconstruct(rec *grid.Grid[T]) error {
	elem := rawio.ElemSize[T]()
	pos := 0
	forEachAnchor(rec, func(idx int) {
		rec.Data[idx] = rawio.GetValue[T](sd.anchors[pos:])
		pos += elem
	})
	row := scratch.LeaseFloat[T]((sd.nx + 1) / 2)
	defer scratch.ReleaseFloat(row)
	lineCodes := scratch.U16.Lease((sd.nx + 1) / 2)
	defer scratch.U16.Release(lineCodes)
	return sd.reconstructLanes(rec.Data, row, lineCodes)
}

// reconstructLanes is reconstruct's loop over the cone's lines. A line's
// codes are gathered from its bricks' lanes into lineCodes, and the line
// dequantises in one call per escape-free run.
func (sd *serialDecode[T]) reconstructLanes(out, row []T, lineCodes []uint16) error {
	bin, radius := 2*sd.q.EB, sd.q.Radius
	ld := &sd.lanes
	var ferr error
	forEachLine(sd.nz, sd.ny, sd.nx, &sd.needs, func(ln *line) {
		if ferr != nil {
			return
		}
		preds := row[:ln.n]
		predictLine(out, ln, preds)
		lane, off, offLast := sd.tl.row(ln)
		last := sd.tl.lv[ln.pass/3].n[2] - 1
		// The points [lo, hi) of the whole line: x0 is lo steps of 2h past
		// the line's first point, 0 or h. at is the index in ld.codes of
		// the line's point t.
		lo := ln.x0 / ln.stride
		hi := lo + ln.n
		at := func(t int) int {
			c := t / brickCols
			if c == last {
				return ld.at[lane+c] + offLast + t - c*brickCols
			}
			return ld.at[lane+c] + off + t - c*brickCols
		}
		cs := lineCodes[:ln.n]
		for t := lo; t < hi; {
			t1 := min(hi, (t/brickCols+1)*brickCols)
			copy(cs[t-lo:], ld.codes[at(t):][:t1-t])
			t = t1
		}
		// The points up to the next escape dequantise in one call.
		for k := 0; k < ln.n; k++ {
			k += quant.DequantizeRow(out[ln.idx+k*ln.stride:], ln.stride, cs[k:], preds[k:], bin, radius)
			if k == ln.n {
				break
			}
			v, ok := ld.escape(at(lo + k))
			if !ok {
				ferr = fmt.Errorf("%w: %w: a zero code in a stream without escapes", ErrFormat, huffman.ErrEscapeCount)
				return
			}
			out[ln.idx+k*ln.stride] = v
		}
	})
	return ferr
}

// compressChunked is the SZ3-OMP equivalent: the grid is split along its z
// axis into independent chunks compressed in parallel, each reconstructing
// into its own z-slab of rec (or, with rec nil, a lease of its own).
func compressChunked[T grid.Float](g *grid.Grid[T], o Options, rec []T) ([]byte, error) {
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
		var slab []T
		if rec != nil {
			slab = rec[lo*plane : hi*plane]
		}
		blobs[c], errs[c] = compressSerial(sub, serialOpts, slab)
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
	out[4] = byte(rawio.ElemSize[T]())
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
// (either mode) — native random access, bit-identical to the same region of
// Decompress. Only b's dependency cone is reconstructed (openSerial,
// reconstruct): the stencil reaches 3h per pass, so a small window depends
// on a small fraction of the grid; a v3 stream entropy-decodes only the
// lanes that hold the cone's codes, an older one decodes whole. For
// chunked ("OMP") streams the z-slab chunks add genuine sub-stream
// addressing on top: only the slabs whose plane range intersects b are
// touched at all, each for the cone of its own part of b. The box must lie
// entirely inside the stream's grid, and is checked before anything is
// decoded or leased — callers wanting clip semantics clip first (the codec
// layer validates with codec.CheckBox before dispatching here). Like
// Decompress's, the result grid is backed by a scratch lease that a
// transient consumer hands back.
func DecompressBox[T grid.Float](data []byte, b grid.Box, workers int) (*grid.Grid[T], error) {
	if len(data) < 4 {
		return nil, ErrFormat
	}
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if binary.LittleEndian.Uint32(data) != MagicChunked {
		sd, err := openSerial[T](data, b, workers)
		if err != nil {
			return nil, err
		}
		defer sd.release()
		out := leaseBox[T](b)
		if err := sd.copyBox(out, b, 0); err != nil {
			scratch.ReleaseFloat(out.Data)
			return nil, err
		}
		return out, nil
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
	out := leaseBox[T](b)
	errs := make([]error, len(need))
	parallel.For(len(need), workers, func(i int) {
		c := need[i]
		lo, hi := bounds[c], bounds[c+1]
		errs[i] = copyBoxFromSerial(out, data[offs[c]:offs[c+1]], b, lo, hi-lo, ny, nx)
	})
	for _, err := range errs {
		if err != nil {
			scratch.ReleaseFloat(out.Data)
			return nil, err
		}
	}
	return out, nil
}

// leaseBox leases a grid of b's dims. The slabs a box decode touches cover
// every plane of b, so each point is written before the grid is returned.
func leaseBox[T grid.Float](b grid.Box) *grid.Grid[T] {
	return &grid.Grid[T]{Data: scratch.LeaseFloat[T](b.Volume()), Nz: b.Z1 - b.Z0, Ny: b.Y1 - b.Y0, Nx: b.X1 - b.X0}
}

// copyBoxFromSerial copies into out (whose dims are b's) the part of b that
// the serial stream data covers: an nz×ny×nx slab whose plane 0 is plane
// zOff of b's grid.
func copyBoxFromSerial[T grid.Float](out *grid.Grid[T], data []byte, b grid.Box, zOff, nz, ny, nx int) error {
	local := b
	local.Z0, local.Z1 = max(b.Z0, zOff)-zOff, min(b.Z1, zOff+nz)-zOff
	sd, err := openSlab[T](data, local, nz, ny, nx)
	if err != nil {
		return err
	}
	defer sd.release()
	return sd.copyBox(out, b, zOff)
}

// openSlab opens the serial stream of one slab of a chunked stream for the
// box b of its nz×ny×nx grid, which its header must declare. The chunks
// already occupy the worker pool, so each slab's lanes decode on its own
// goroutine.
func openSlab[T grid.Float](data []byte, b grid.Box, nz, ny, nx int) (*serialDecode[T], error) {
	sd, err := openSerial[T](data, b, 1)
	if err != nil {
		return nil, err
	}
	if sd.nz != nz || sd.ny != ny || sd.nx != nx {
		sd.release()
		return nil, fmt.Errorf("%w: dims mismatch", ErrFormat)
	}
	return sd, nil
}

// copyBox reconstructs the opened box's cone in a leased slab of the
// stream's grid, whose plane 0 is plane zOff of b's grid, and windows b's
// part of it out into out.
func (sd *serialDecode[T]) copyBox(out *grid.Grid[T], b grid.Box, zOff int) error {
	slab := &grid.Grid[T]{Data: scratch.LeaseFloat[T](sd.nz * sd.ny * sd.nx), Nz: sd.nz, Ny: sd.ny, Nx: sd.nx}
	defer scratch.ReleaseFloat(slab.Data)
	if err := sd.reconstruct(slab); err != nil {
		return err
	}
	out.CopyBoxFromSlab(slab, b, zOff)
	return nil
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
	if int(data[4]) != rawio.ElemSize[T]() {
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
		sd, err := openSlab[T](data[offs[c]:offs[c+1]], grid.FullBox(sub), sub.Nz, ny, nx)
		if err != nil {
			errs[c] = err
			return
		}
		defer sd.release()
		errs[c] = sd.reconstruct(sub)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
