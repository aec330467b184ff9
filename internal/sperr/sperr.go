// Package sperr implements SPERR-lite: a wavelet-transform compressor
// standing in for SPERR in the paper's evaluation.
//
// The pipeline mirrors SPERR's structure: a multi-level CDF 9/7 wavelet
// transform (lifting scheme with symmetric extension, applied separably in
// 3D), scalar quantization of the wavelet coefficients with Huffman coding
// (substituting for SPECK's bit-plane coder), and SPERR's outlier-correction
// pass that restores a strict point-wise error bound after the inverse
// transform.
//
// The profile the paper relies on is preserved: the global transform
// captures widespread high-frequency structure (best-in-class quality on
// such data), progressive-friendly multi-resolution structure, and a high
// computational cost — the whole volume is transformed once forward, once
// inverse during compression (for the correction pass), and once inverse
// during decompression.
package sperr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stz/internal/bitio"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// Magic identifies a version-1 SPERR-lite stream; MagicV2 a version-2
// stream, identical except that the quantized-coefficient plan is
// entropy-coded with the multi-lane Huffman payload (huffman.EncodeLanes).
// Writers emit v2; readers accept both.
const (
	Magic   = uint32(0x52455053) // "SPER"
	MagicV2 = uint32(0x32525053) // "SPR2"
)

// ErrFormat reports a malformed stream.
var ErrFormat = errors.New("sperr: malformed stream")

// CDF 9/7 lifting constants (JPEG2000 irreversible filter).
const (
	lifA = -1.586134342059924
	lifB = -0.052980118572961
	lifG = 0.882911075530934
	lifD = 0.443506852043971
	lifK = 1.149604398860241
)

// Options configures compression.
type Options struct {
	// Tolerance is the absolute error bound.
	Tolerance float64
	// Levels caps the wavelet depth; 0 selects automatically.
	Levels int
	// Workers > 1 parallelizes the per-line transform passes.
	Workers int
}

// sym reflects index i into [0, n) with whole-sample symmetry.
func sym(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	if i < 0 {
		i = -i
	}
	i %= period
	if i >= n {
		i = period - i
	}
	return i
}

// fwdLine applies the forward CDF 9/7 transform to line[0:n] in place and
// deinterleaves it into [low | high] using scratch.
func fwdLine(line, scratch []float64, n int) {
	if n < 2 {
		return
	}
	for i := 1; i < n; i += 2 {
		line[i] += float64(lifA * (line[i-1] + line[sym(i+1, n)]))
	}
	for i := 0; i < n; i += 2 {
		line[i] += float64(lifB * (line[sym(i-1, n)] + line[sym(i+1, n)]))
	}
	for i := 1; i < n; i += 2 {
		line[i] += float64(lifG * (line[i-1] + line[sym(i+1, n)]))
	}
	for i := 0; i < n; i += 2 {
		line[i] += float64(lifD * (line[sym(i-1, n)] + line[sym(i+1, n)]))
	}
	nLow := (n + 1) / 2
	for i := 0; i < n; i += 2 {
		scratch[i/2] = line[i] * (1 / lifK)
	}
	for i := 1; i < n; i += 2 {
		scratch[nLow+i/2] = line[i] * lifK
	}
	copy(line[:n], scratch[:n])
}

// invLine inverts fwdLine.
func invLine(line, scratch []float64, n int) {
	if n < 2 {
		return
	}
	nLow := (n + 1) / 2
	for i := 0; i < n; i += 2 {
		scratch[i] = line[i/2] * lifK
	}
	for i := 1; i < n; i += 2 {
		scratch[i] = line[nLow+i/2] * (1 / lifK)
	}
	copy(line[:n], scratch[:n])
	for i := 0; i < n; i += 2 {
		line[i] -= float64(lifD * (line[sym(i-1, n)] + line[sym(i+1, n)]))
	}
	for i := 1; i < n; i += 2 {
		line[i] -= float64(lifG * (line[i-1] + line[sym(i+1, n)]))
	}
	for i := 0; i < n; i += 2 {
		line[i] -= float64(lifB * (line[sym(i-1, n)] + line[sym(i+1, n)]))
	}
	for i := 1; i < n; i += 2 {
		line[i] -= float64(lifA * (line[i-1] + line[sym(i+1, n)]))
	}
}

// autoLevels picks the wavelet depth for the dims.
func autoLevels(nz, ny, nx int) int {
	minDim := 1 << 30
	for _, d := range []int{nz, ny, nx} {
		if d > 1 && d < minDim {
			minDim = d
		}
	}
	if minDim == 1<<30 {
		return 1
	}
	l := 0
	for minDim>>(uint(l)+1) >= 4 && l < 4 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// activeDims returns the dyadic active-region dims after lv levels.
func activeDims(nz, ny, nx, lv int) (int, int, int) {
	for i := 0; i < lv; i++ {
		if nz > 1 {
			nz = (nz + 1) / 2
		}
		if ny > 1 {
			ny = (ny + 1) / 2
		}
		if nx > 1 {
			nx = (nx + 1) / 2
		}
	}
	return nz, ny, nx
}

// linePass runs fn(line, tmp, i) for i in [0, n) on up to workers
// goroutines, handing each worker one leased (line, tmp) buffer pair of
// length lineLen instead of allocating two slices per line — the wavelet
// passes are the allocation hot spot of the codec. fn must overwrite line
// fully before reading it (fwdLine/invLine do).
func linePass(n, lineLen, workers int, fn func(line, tmp []float64, i int)) {
	parallel.ForBlocks(n, workers, workers, func(lo, hi int) {
		line := scratch.F64.Lease(lineLen)
		tmp := scratch.F64.Lease(lineLen)
		for i := lo; i < hi; i++ {
			fn(line, tmp, i)
		}
		scratch.F64.Release(line)
		scratch.F64.Release(tmp)
	})
}

// forward3D applies nlev levels of the separable forward transform in
// place over work (row-major nz×ny×nx).
func forward3D(work []float64, nz, ny, nx, nlev, workers int) {
	az, ay, ax := nz, ny, nx
	for l := 0; l < nlev; l++ {
		if ax > 1 {
			linePass(az*ay, ax, workers, func(line, tmp []float64, zy int) {
				z, y := zy/ay, zy%ay
				row := (z*ny + y) * nx
				copy(line, work[row:row+ax])
				fwdLine(line, tmp, ax)
				copy(work[row:row+ax], line)
			})
		}
		if ay > 1 {
			linePass(az*ax, ay, workers, func(line, tmp []float64, zx int) {
				z, x := zx/ax, zx%ax
				for y := 0; y < ay; y++ {
					line[y] = work[(z*ny+y)*nx+x]
				}
				fwdLine(line, tmp, ay)
				for y := 0; y < ay; y++ {
					work[(z*ny+y)*nx+x] = line[y]
				}
			})
		}
		if az > 1 {
			linePass(ay*ax, az, workers, func(line, tmp []float64, yx int) {
				y, x := yx/ax, yx%ax
				for z := 0; z < az; z++ {
					line[z] = work[(z*ny+y)*nx+x]
				}
				fwdLine(line, tmp, az)
				for z := 0; z < az; z++ {
					work[(z*ny+y)*nx+x] = line[z]
				}
			})
		}
		az, ay, ax = activeDims(az, ay, ax, 1)
	}
}

// inverse3D inverts forward3D.
func inverse3D(work []float64, nz, ny, nx, nlev, workers int) {
	for l := nlev - 1; l >= 0; l-- {
		az, ay, ax := activeDims(nz, ny, nx, l)
		if az > 1 {
			linePass(ay*ax, az, workers, func(line, tmp []float64, yx int) {
				y, x := yx/ax, yx%ax
				for z := 0; z < az; z++ {
					line[z] = work[(z*ny+y)*nx+x]
				}
				invLine(line, tmp, az)
				for z := 0; z < az; z++ {
					work[(z*ny+y)*nx+x] = line[z]
				}
			})
		}
		if ay > 1 {
			linePass(az*ax, ay, workers, func(line, tmp []float64, zx int) {
				z, x := zx/ax, zx%ax
				for y := 0; y < ay; y++ {
					line[y] = work[(z*ny+y)*nx+x]
				}
				invLine(line, tmp, ay)
				for y := 0; y < ay; y++ {
					work[(z*ny+y)*nx+x] = line[y]
				}
			})
		}
		if ax > 1 {
			linePass(az*ay, ax, workers, func(line, tmp []float64, zy int) {
				z, y := zy/ay, zy%ay
				row := (z*ny + y) * nx
				copy(line, work[row:row+ax])
				invLine(line, tmp, ax)
				copy(work[row:row+ax], line)
			})
		}
	}
}

// Compress encodes g under o.Tolerance.
func Compress[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if !(o.Tolerance > 0) || math.IsInf(o.Tolerance, 0) {
		return nil, fmt.Errorf("sperr: invalid tolerance %g", o.Tolerance)
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("sperr: empty grid")
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	nlev := o.Levels
	if nlev <= 0 || nlev > 6 {
		nlev = autoLevels(g.Nz, g.Ny, g.Nx)
	}

	// Forward transform on a float64 working copy. All whole-grid work
	// arrays are scratch leases, fully overwritten before use.
	work := scratch.F64.Lease(g.Len())
	defer scratch.F64.Release(work)
	for i, v := range g.Data {
		work[i] = float64(v)
	}
	forward3D(work, g.Nz, g.Ny, g.Nx, nlev, workers)

	// Quantize coefficients against zero.
	step := o.Tolerance
	q := quant.Quantizer{EB: step, Radius: quant.DefaultRadius}
	codes := scratch.U16.Lease(len(work))
	defer scratch.U16.Release(codes)
	outliers := scratch.Bytes.Lease(64 + len(work))[:0]
	defer func() { scratch.Bytes.Release(outliers) }()
	var nOut uint32
	coeffRec := scratch.F64.Lease(len(work))
	defer scratch.F64.Release(coeffRec)
	for i, cv := range work {
		code, rec, ok := q.Quantize(cv, 0)
		if !ok {
			outliers = binary.LittleEndian.AppendUint64(outliers, math.Float64bits(cv))
			nOut++
			codes[i] = 0
			coeffRec[i] = cv
			continue
		}
		codes[i] = code
		coeffRec[i] = rec
	}
	hblob := huffman.EncodeLanes(codes, q.Alphabet())

	// Correction pass: invert the reconstructed coefficients and record
	// corrections for every point whose error exceeds the tolerance.
	inverse3D(coeffRec, g.Nz, g.Ny, g.Nx, nlev, workers)
	cw := bitio.NewWriter(1024)
	var nCorr uint64
	prevIdx := -1
	for i := range coeffRec {
		rec := T(coeffRec[i])
		r := float64(g.Data[i]) - float64(rec)
		if math.Abs(r) <= o.Tolerance && !math.IsNaN(r) {
			continue
		}
		// Correction: either a quantized residual or a raw value.
		cw.WriteGamma(uint64(i - prevIdx - 1))
		prevIdx = i
		k := math.Round(r / o.Tolerance)
		corrected := float64(rec) + float64(k*o.Tolerance)
		if !math.IsNaN(r) && math.Abs(float64(T(corrected))-float64(g.Data[i])) <= o.Tolerance &&
			math.Abs(k) < 1<<40 {
			cw.WriteBit(0)
			cw.WriteGamma(zigzag(int64(k)))
		} else {
			cw.WriteBit(1)
			writeRawBits(cw, g.Data[i])
		}
		nCorr++
	}
	corrBlob := cw.Bytes()

	out := make([]byte, 47, 47+len(outliers)+len(hblob)+len(corrBlob))
	binary.LittleEndian.PutUint32(out[0:], MagicV2)
	out[4] = byte(rawio.ElemSize[T]())
	out[5] = byte(nlev)
	binary.LittleEndian.PutUint32(out[6:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[10:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[14:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(out[18:], math.Float64bits(o.Tolerance))
	binary.LittleEndian.PutUint32(out[26:], uint32(nOut))
	binary.LittleEndian.PutUint32(out[30:], uint32(len(hblob)))
	binary.LittleEndian.PutUint64(out[34:], nCorr)
	binary.LittleEndian.PutUint32(out[42:], uint32(len(corrBlob)))
	out = append(out, outliers...)
	out = append(out, hblob...)
	out = append(out, corrBlob...)
	return out, nil
}

// Decompress reconstructs the full grid with up to workers goroutines for
// the inverse transform (0 = serial).
func DecompressWorkers[T grid.Float](data []byte, workers int) (*grid.Grid[T], error) {
	if workers < 1 {
		workers = 1
	}
	if len(data) < 47 {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	version := 0
	switch binary.LittleEndian.Uint32(data) {
	case Magic:
		version = 1
	case MagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if int(data[4]) != rawio.ElemSize[T]() {
		return nil, fmt.Errorf("%w: element type mismatch", ErrFormat)
	}
	nlev := int(data[5])
	nz := int(binary.LittleEndian.Uint32(data[6:]))
	ny := int(binary.LittleEndian.Uint32(data[10:]))
	nx := int(binary.LittleEndian.Uint32(data[14:]))
	tol := math.Float64frombits(binary.LittleEndian.Uint64(data[18:]))
	nOut := int(binary.LittleEndian.Uint32(data[26:]))
	hlen := int(binary.LittleEndian.Uint32(data[30:]))
	nCorr := binary.LittleEndian.Uint64(data[34:])
	clen := int(binary.LittleEndian.Uint32(data[42:]))
	if nz <= 0 || ny <= 0 || nx <= 0 || int64(nz)*int64(ny)*int64(nx) > 1<<33 ||
		nlev < 1 || nlev > 6 || !(tol > 0) {
		return nil, fmt.Errorf("%w: bad header", ErrFormat)
	}
	pos := 47
	if pos+8*nOut+hlen+clen > len(data) {
		return nil, fmt.Errorf("%w: truncated payload", ErrFormat)
	}
	outData := data[pos : pos+8*nOut]
	hblob := data[pos+8*nOut : pos+8*nOut+hlen]
	corrBlob := data[pos+8*nOut+hlen : pos+8*nOut+hlen+clen]

	q := quant.Quantizer{EB: tol, Radius: quant.DefaultRadius}
	n := nz * ny * nx
	codesBuf := scratch.U16.Lease(n)
	defer scratch.U16.Release(codesBuf)
	var codes []uint16
	var err error
	if version >= 2 {
		codes, err = huffman.DecodeLanesInto(codesBuf[:0], hblob, q.Alphabet(), workers)
	} else {
		codes, err = huffman.DecodeInto(codesBuf[:0], hblob, q.Alphabet())
	}
	if err != nil {
		return nil, fmt.Errorf("sperr: %w", err)
	}
	if len(codes) != n {
		return nil, fmt.Errorf("%w: coefficient count mismatch", ErrFormat)
	}
	work := scratch.F64.Lease(n)
	defer scratch.F64.Release(work)
	oi := 0
	for i, code := range codes {
		if code == 0 {
			if oi >= nOut {
				return nil, fmt.Errorf("%w: outliers exhausted", ErrFormat)
			}
			work[i] = math.Float64frombits(binary.LittleEndian.Uint64(outData[8*oi:]))
			oi++
			continue
		}
		work[i] = q.Dequantize(code, 0)
	}
	inverse3D(work, nz, ny, nx, nlev, workers)

	out := grid.New[T](nz, ny, nx)
	for i, v := range work {
		out.Data[i] = T(v)
	}
	// Apply corrections.
	cr := bitio.NewReader(corrBlob)
	idx := uint64(0)
	first := true
	for c := uint64(0); c < nCorr; c++ {
		delta, err := cr.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("%w: corrections truncated", ErrFormat)
		}
		if first {
			idx = delta
			first = false
		} else {
			idx += delta + 1
		}
		if idx >= uint64(n) {
			return nil, fmt.Errorf("%w: correction index out of range", ErrFormat)
		}
		kind, err := cr.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("%w: corrections truncated", ErrFormat)
		}
		if kind == 0 {
			zk, err := cr.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("%w: corrections truncated", ErrFormat)
			}
			k := unzigzag(zk)
			out.Data[idx] = T(float64(out.Data[idx]) + float64(float64(k)*tol))
		} else {
			v, err := readRawBits[T](cr)
			if err != nil {
				return nil, fmt.Errorf("%w: corrections truncated", ErrFormat)
			}
			out.Data[idx] = v
		}
	}
	return out, nil
}

// Decompress reconstructs the full grid serially.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	return DecompressWorkers[T](data, 1)
}

func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

func writeRawBits[T grid.Float](w *bitio.Writer, v T) {
	switch x := any(v).(type) {
	case float32:
		w.WriteBits(uint64(math.Float32bits(x)), 32)
	case float64:
		w.WriteBits(math.Float64bits(x), 64)
	}
}

func readRawBits[T grid.Float](r *bitio.Reader) (T, error) {
	var v T
	if _, ok := any(v).(float32); ok {
		bits, err := r.ReadBits(32)
		if err != nil {
			return v, err
		}
		return T(math.Float32frombits(uint32(bits))), nil
	}
	bits, err := r.ReadBits(64)
	if err != nil {
		return v, err
	}
	return T(math.Float64frombits(bits)), nil
}
