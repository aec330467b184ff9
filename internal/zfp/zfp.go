// Package zfp implements a mini-ZFP: a block-wise transform compressor with
// the same pipeline structure as ZFP's fixed-accuracy mode — 4³ block
// decomposition, block-floating-point normalization, an exactly invertible
// integer lifting transform, negabinary mapping, total-degree coefficient
// ordering, and group-tested embedded bit-plane coding — plus a byte-offset
// block index that makes every block addressable on its own (ZFP's random
// access; Decompress decodes the whole grid).
//
// Substitution note (recorded in DESIGN.md): ZFP's proprietary lifting
// kernel is replaced by a two-level S-transform (integer Haar with exact
// inverse), and each block is byte-aligned so the random-access index can
// address it directly. Both preserve the properties the paper relies on:
// block independence (random access, no cross-block correlation → lower
// quality), very high speed, and blocky artifacts at high compression.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"stz/internal/bitio"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// Magic identifies a mini-ZFP stream.
const Magic = uint32(0x50465a01) // "ZFP" + version 1

// ErrFormat reports a malformed stream.
var ErrFormat = errors.New("zfp: malformed stream")

const (
	blockDim  = 4
	blockSize = blockDim * blockDim * blockDim
	// fracBits is the block-floating-point fraction width: values are
	// scaled to |i| < 2^fracBits before the transform.
	fracBits = 28
	// nbMask is the 32-bit negabinary conversion mask.
	nbMask = uint32(0xaaaaaaaa)
	// emaxZero flags an all-zero block; emaxRaw flags a verbatim block.
	emaxZero = int16(-32768)
	emaxRaw  = int16(32767)
)

// Options configures compression.
type Options struct {
	// Tolerance is the absolute error bound (fixed-accuracy mode).
	Tolerance float64
	// Workers > 1 compresses blocks in parallel.
	Workers int
}

// perm is the total-degree coefficient ordering for a 4³ block.
var perm = buildPerm()

func buildPerm() [blockSize]int {
	type entry struct{ deg, idx int }
	entries := make([]entry, 0, blockSize)
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			for x := 0; x < blockDim; x++ {
				entries = append(entries, entry{z + y + x, (z*blockDim+y)*blockDim + x})
			}
		}
	}
	// Insertion sort by (deg, idx): stable and dependency-free.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0; j-- {
			a, b := entries[j-1], entries[j]
			if b.deg < a.deg || (b.deg == a.deg && b.idx < a.idx) {
				entries[j-1], entries[j] = b, a
			} else {
				break
			}
		}
	}
	var p [blockSize]int
	for i, e := range entries {
		p[i] = e.idx
	}
	return p
}

// fwdPair applies the exactly invertible S-transform to a pair:
// s = floor((a+b)/2), d = a−b.
func fwdPair(a, b int32) (s, d int32) {
	return (a + b) >> 1, a - b
}

// invPair inverts fwdPair.
func invPair(s, d int32) (a, b int32) {
	a = s + ((d + (d & 1)) >> 1)
	return a, a - d
}

// fwdLift4 transforms 4 elements at stride st in place (two S-levels).
func fwdLift4(p []int32, o, st int) {
	s0, d0 := fwdPair(p[o], p[o+st])
	s1, d1 := fwdPair(p[o+2*st], p[o+3*st])
	ss, ds := fwdPair(s0, s1)
	p[o], p[o+st], p[o+2*st], p[o+3*st] = ss, ds, d0, d1
}

// invLift4 inverts fwdLift4.
func invLift4(p []int32, o, st int) {
	ss, ds, d0, d1 := p[o], p[o+st], p[o+2*st], p[o+3*st]
	s0, s1 := invPair(ss, ds)
	a0, b0 := invPair(s0, d0)
	a1, b1 := invPair(s1, d1)
	p[o], p[o+st], p[o+2*st], p[o+3*st] = a0, b0, a1, b1
}

// fwdTransform applies the separable lifting along x, y, z of a 4³ block.
func fwdTransform(b []int32) {
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			fwdLift4(b, (z*blockDim+y)*blockDim, 1)
		}
	}
	for z := 0; z < blockDim; z++ {
		for x := 0; x < blockDim; x++ {
			fwdLift4(b, z*blockDim*blockDim+x, blockDim)
		}
	}
	for y := 0; y < blockDim; y++ {
		for x := 0; x < blockDim; x++ {
			fwdLift4(b, y*blockDim+x, blockDim*blockDim)
		}
	}
}

// invTransform inverts fwdTransform (reverse order).
func invTransform(b []int32) {
	for y := 0; y < blockDim; y++ {
		for x := 0; x < blockDim; x++ {
			invLift4(b, y*blockDim+x, blockDim*blockDim)
		}
	}
	for z := 0; z < blockDim; z++ {
		for x := 0; x < blockDim; x++ {
			invLift4(b, z*blockDim*blockDim+x, blockDim)
		}
	}
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			invLift4(b, (z*blockDim+y)*blockDim, 1)
		}
	}
}

// toNegabinary maps a two's-complement int32 to the negabinary unsigned
// representation used for sign-free embedded coding.
func toNegabinary(i int32) uint32 {
	return (uint32(i) + nbMask) ^ nbMask
}

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint32) int32 {
	return int32((u ^ nbMask) - nbMask)
}

// transposePlanes converts the permuted coefficients into per-plane bit
// masks for the planes at or above minPlane: planes[p] bit i = bit p of
// u[perm[i]]. Bits below the cut plane are skipped — after truncation most
// coefficients contribute nothing, which keeps this loop proportional to
// the information actually emitted.
func transposePlanes(u *[blockSize]uint32, minPlane int, planes *[32]uint64) {
	keep := ^uint32(0) << uint(minPlane)
	for i := 0; i < blockSize; i++ {
		v := u[perm[i]] & keep
		for v != 0 {
			p := bits.TrailingZeros32(v)
			planes[p] |= 1 << uint(i)
			v &= v - 1
		}
	}
}

// encodePlanes writes bit-planes 31..minPlane of the permuted coefficients
// with zfp-style group testing, operating on transposed plane masks.
func encodePlanes(w *bitio.Writer, u *[blockSize]uint32, minPlane int) {
	var planes [32]uint64
	transposePlanes(u, minPlane, &planes)
	n := 0 // number of coefficients already significant
	for plane := 31; plane >= minPlane; plane-- {
		mask := planes[plane]
		// Verbatim bits of already-significant coefficients.
		if n > 0 {
			w.WriteBits(mask&((1<<uint(n))-1), uint(n))
		}
		// Group-test the rest: each group emits "1" then the zero run up to
		// and including the next significant coefficient; a final "0" closes
		// the plane when no further coefficient is significant.
		rest := mask >> uint(n)
		for n < blockSize {
			if rest == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			tz := bits.TrailingZeros64(rest)
			// tz zero bits then a one bit, LSB-first.
			w.WriteBits(1<<uint(tz), uint(tz+1))
			n += tz + 1
			rest >>= uint(tz + 1)
		}
	}
}

// decodePlanes mirrors encodePlanes.
func decodePlanes(r *bitio.Reader, u *[blockSize]uint32, minPlane int) error {
	var planes [32]uint64
	n := 0
	for plane := 31; plane >= minPlane; plane-- {
		var mask uint64
		if n > 0 {
			v, err := r.ReadBits(uint(n))
			if err != nil {
				return err
			}
			mask = v
		}
		for n < blockSize {
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
			// Zero run terminated by a one bit, scanned word-at-a-time on
			// the refill-amortized reader: one trailing-zero count replaces
			// the per-bit read loop.
			run := 0
			for {
				avail := r.Refill()
				if avail == 0 {
					return bitio.ErrOutOfBits
				}
				v := r.PeekFast(avail)
				tz := uint(bits.TrailingZeros64(v))
				if tz < avail {
					r.SkipFast(tz + 1)
					run += int(tz)
					break
				}
				r.SkipFast(avail)
				run += int(avail)
				if run > blockSize {
					return ErrFormat
				}
			}
			if run > blockSize {
				return ErrFormat
			}
			n += run + 1
			if n > blockSize {
				return ErrFormat
			}
			mask |= 1 << uint(n-1)
		}
		planes[plane] = mask
	}
	// Transpose back into coefficients.
	for plane := 31; plane >= minPlane; plane-- {
		m := planes[plane]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			u[perm[i]] |= 1 << uint(plane)
			m &= m - 1
		}
	}
	return nil
}

// gatherBlock copies the block at block coords (bz,by,bx) into dst,
// clamping reads at the grid edge (edge replication padding).
func gatherBlock[T grid.Float](g *grid.Grid[T], bz, by, bx int, dst *[blockSize]float64) {
	for z := 0; z < blockDim; z++ {
		zz := bz*blockDim + z
		if zz >= g.Nz {
			zz = g.Nz - 1
		}
		for y := 0; y < blockDim; y++ {
			yy := by*blockDim + y
			if yy >= g.Ny {
				yy = g.Ny - 1
			}
			row := (zz*g.Ny + yy) * g.Nx
			for x := 0; x < blockDim; x++ {
				xx := bx*blockDim + x
				if xx >= g.Nx {
					xx = g.Nx - 1
				}
				dst[(z*blockDim+y)*blockDim+x] = float64(g.Data[row+xx])
			}
		}
	}
}

// scatterBlock writes the in-range part of a decoded block into g.
func scatterBlock[T grid.Float](g *grid.Grid[T], bz, by, bx int, src *[blockSize]float64) {
	for z := 0; z < blockDim; z++ {
		zz := bz*blockDim + z
		if zz >= g.Nz {
			break
		}
		for y := 0; y < blockDim; y++ {
			yy := by*blockDim + y
			if yy >= g.Ny {
				break
			}
			row := (zz*g.Ny + yy) * g.Nx
			for x := 0; x < blockDim; x++ {
				xx := bx*blockDim + x
				if xx >= g.Nx {
					break
				}
				g.Data[row+xx] = T(src[(z*blockDim+y)*blockDim+x])
			}
		}
	}
}

// transformBlock quantizes vals into negabinary transform coefficients.
func transformBlock(vals *[blockSize]float64, emax int, u *[blockSize]uint32) {
	scale := math.Ldexp(1, fracBits-emax)
	var q [blockSize]int32
	for i, v := range vals {
		q[i] = int32(math.Round(v * scale))
	}
	fwdTransform(q[:])
	for i, iv := range q {
		u[i] = toNegabinary(iv)
	}
}

// reconAt reconstructs the block values that truncating the coefficients
// below minPlane produces — identical to decoding the emitted stream, but
// without a bitstream round trip.
func reconAt(u *[blockSize]uint32, emax, minPlane int, rec *[blockSize]float64) {
	var qd [blockSize]int32
	keep := ^uint32(0)
	if minPlane > 0 {
		keep <<= uint(minPlane)
	}
	for i, uv := range u {
		qd[i] = fromNegabinary(uv & keep)
	}
	invTransform(qd[:])
	inv := math.Ldexp(1, emax-fracBits)
	for i, iv := range qd {
		rec[i] = float64(iv) * inv
	}
}

func maxAbsErr(a, b *[blockSize]float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// compressBlock encodes one block under the tolerance, lowering the cut
// plane until the bound holds, falling back to verbatim storage if even
// full precision cannot satisfy it.
func appendBlock[T grid.Float](dst []byte, w *bitio.Writer, vals *[blockSize]float64, tol float64) []byte { //nolint:gocyclo
	var maxV float64
	allZero := true
	for _, v := range vals {
		a := math.Abs(v)
		if a > maxV {
			maxV = a
		}
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		z := emaxZero
		return binary.LittleEndian.AppendUint16(dst, uint16(z))
	}
	_, emax := math.Frexp(maxV) // maxV < 2^emax
	if !isFinite(maxV) || emax > 30000 {
		return appendRawBlock[T](dst, vals)
	}
	// Initial cut-plane estimate: integer-unit tolerance with a small
	// margin; the verification loop below enforces the bound exactly, so
	// the estimate only controls how many attempts are needed.
	scaledTol := tol * math.Ldexp(1, fracBits-emax) / 2
	est := 0
	if scaledTol > 1 {
		est = int(math.Floor(math.Log2(scaledTol)))
		if est > 31 {
			est = 31
		}
	}
	var u [blockSize]uint32
	transformBlock(vals, emax, &u)
	var rec [blockSize]float64
	for plane := est; plane >= 0; plane-- {
		reconAt(&u, emax, plane, &rec)
		err := maxAbsErr(vals, &rec)
		if err <= tol {
			w.Reset()
			encodePlanes(w, &u, plane)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(int16(emax)))
			dst = append(dst, byte(plane))
			return append(dst, w.Bytes()...)
		}
		// Skip planes that cannot close the gap: truncating one plane lower
		// halves the truncation error.
		if plane > 0 {
			drop := int(math.Ceil(math.Log2(err / tol)))
			if drop > 1 && plane-drop >= 0 {
				plane = plane - drop + 1 // loop decrement applies −1 more
			}
		}
	}
	return appendRawBlock[T](dst, vals)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func appendRawBlock[T grid.Float](dst []byte, vals *[blockSize]float64) []byte {
	rv := emaxRaw
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rv))
	var t T
	if _, ok := any(t).(float32); ok {
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	} else {
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeBlock decodes one block payload into vals.
func decodeBlock[T grid.Float](br *bitio.Reader, data []byte, vals *[blockSize]float64) error {
	if len(data) < 2 {
		return ErrFormat
	}
	emax := int16(binary.LittleEndian.Uint16(data))
	switch emax {
	case emaxZero:
		for i := range vals {
			vals[i] = 0
		}
		return nil
	case emaxRaw:
		var t T
		if _, ok := any(t).(float32); ok {
			if len(data) < 2+4*blockSize {
				return ErrFormat
			}
			for i := range vals {
				vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[2+4*i:])))
			}
		} else {
			if len(data) < 2+8*blockSize {
				return ErrFormat
			}
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*i:]))
			}
		}
		return nil
	}
	if len(data) < 3 {
		return ErrFormat
	}
	plane := int(data[2])
	if plane > 31 {
		return ErrFormat
	}
	var u [blockSize]uint32
	br.Reset(data[3:])
	if err := decodePlanes(br, &u, plane); err != nil {
		return err
	}
	var q [blockSize]int32
	for i, uv := range u {
		q[i] = fromNegabinary(uv)
	}
	invTransform(q[:])
	inv := math.Ldexp(1, int(emax)-fracBits)
	for i, iv := range q {
		vals[i] = float64(iv) * inv
	}
	return nil
}

func blockCounts(nz, ny, nx int) (int, int, int) {
	c := func(n int) int { return (n + blockDim - 1) / blockDim }
	return c(nz), c(ny), c(nx)
}

// Compress encodes g in fixed-accuracy mode under o.Tolerance.
func Compress[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if !(o.Tolerance > 0) || math.IsInf(o.Tolerance, 0) {
		return nil, fmt.Errorf("zfp: invalid tolerance %g", o.Tolerance)
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("zfp: empty grid")
	}
	cz, cy, cx := blockCounts(g.Nz, g.Ny, g.Nx)
	nBlocks := cz * cy * cx
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	// Each worker range encodes its blocks back to back into one leased
	// arena (recording per-block lengths), instead of allocating a buffer,
	// a bit writer and a blob per 4³ block.
	bounds := parallel.Chunks(nBlocks, workers)
	nRanges := len(bounds) - 1
	arenas := make([][]byte, nRanges)
	lens := make([]int, nBlocks)
	parallel.For(nRanges, workers, func(r int) {
		lo, hi := bounds[r], bounds[r+1]
		w := bitio.NewWriter(80)
		buf := scratch.Bytes.Lease((hi - lo) * 16)[:0]
		var vals [blockSize]float64
		for b := lo; b < hi; b++ {
			bz := b / (cy * cx)
			by := b / cx % cy
			bx := b % cx
			gatherBlock(g, bz, by, bx, &vals)
			start := len(buf)
			buf = appendBlock[T](buf, w, &vals, o.Tolerance)
			lens[b] = len(buf) - start
		}
		arenas[r] = buf
	})
	defer func() {
		for _, a := range arenas {
			scratch.Bytes.Release(a)
		}
	}()

	// Index: gamma-coded block byte lengths.
	iw := bitio.NewWriter(nBlocks / 2)
	for _, l := range lens {
		iw.WriteGamma(uint64(l))
	}
	index := iw.Bytes()

	payload := 0
	for _, a := range arenas {
		payload += len(a)
	}
	out := make([]byte, 33, 33+len(index)+payload)
	binary.LittleEndian.PutUint32(out[0:], Magic)
	out[4] = byte(rawio.ElemSize[T]())
	binary.LittleEndian.PutUint32(out[5:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[9:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[13:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(out[17:], math.Float64bits(o.Tolerance))
	binary.LittleEndian.PutUint32(out[25:], uint32(nBlocks))
	binary.LittleEndian.PutUint32(out[29:], uint32(len(index)))
	out = append(out, index...)
	for _, a := range arenas {
		out = append(out, a...)
	}
	return out, nil
}

// dims returns the grid dims a stream declares, validated, without reading
// past the header.
func dims(data []byte) (nz, ny, nx int, err error) {
	if len(data) < 33 || binary.LittleEndian.Uint32(data) != Magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	nz = int(binary.LittleEndian.Uint32(data[5:]))
	ny = int(binary.LittleEndian.Uint32(data[9:]))
	nx = int(binary.LittleEndian.Uint32(data[13:]))
	if nz <= 0 || ny <= 0 || nx <= 0 || int64(nz)*int64(ny)*int64(nx) > 1<<33 {
		return 0, 0, 0, fmt.Errorf("%w: implausible dims", ErrFormat)
	}
	return nz, ny, nx, nil
}

// Decompress validates the header and block index, then reconstructs the
// full grid (serial, as ZFP decompression has no parallel mode in the
// paper's evaluation).
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	nz, ny, nx, err := dims(data)
	if err != nil {
		return nil, err
	}
	if int(data[4]) != rawio.ElemSize[T]() {
		return nil, fmt.Errorf("%w: element type mismatch", ErrFormat)
	}
	nBlocks := int(binary.LittleEndian.Uint32(data[25:]))
	idxLen := int(binary.LittleEndian.Uint32(data[29:]))
	cz, cy, cx := blockCounts(nz, ny, nx)
	if nBlocks != cz*cy*cx {
		return nil, fmt.Errorf("%w: block count mismatch", ErrFormat)
	}
	if 33+idxLen > len(data) {
		return nil, fmt.Errorf("%w: truncated index", ErrFormat)
	}
	ir := bitio.NewReader(data[33 : 33+idxLen])
	offsets := make([]int, nBlocks+1) // byte offsets of the blocks in data
	offsets[0] = 33 + idxLen
	for b := 0; b < nBlocks; b++ {
		l, err := ir.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("%w: index: %v", ErrFormat, err)
		}
		offsets[b+1] = offsets[b] + int(l)
	}
	if offsets[nBlocks] > len(data) {
		return nil, fmt.Errorf("%w: truncated payload", ErrFormat)
	}
	g := grid.New[T](nz, ny, nx)
	var vals [blockSize]float64
	var br bitio.Reader
	for b := 0; b < nBlocks; b++ {
		if err := decodeBlock[T](&br, data[offsets[b]:offsets[b+1]], &vals); err != nil {
			return nil, fmt.Errorf("zfp: block %d: %w", b, err)
		}
		scatterBlock(g, b/(cy*cx), b/cx%cy, b%cx, &vals)
	}
	return g, nil
}
