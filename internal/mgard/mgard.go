// Package mgard implements MGARD-lite, a multigrid hierarchical-
// decomposition compressor standing in for MGARD-X in the paper's
// evaluation.
//
// The decomposition follows MGARD's structure: a dyadic hierarchy of node
// lattices; at each level the nodes that vanish on the next-coarser lattice
// are predicted by multilinear interpolation (plus a deterministic
// Laplacian correction that plays the role of MGARD's L2 projection), and
// the correction coefficients are quantized with level-scaled error bounds
// (coarser levels tighter, as MGARD's theory requires) and Huffman-coded
// per level.
//
// The level-scaled bounds are what give MGARD-lite the paper-consistent
// profile: strictly error-bounded, progressive-capable, but a lower
// compression ratio than SZ3/STZ, and slower due to the correction pass.
package mgard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
)

// Magic identifies an MGARD-lite stream.
const Magic = uint32(0x4447524d) // "MRGD"

// ErrFormat reports a malformed stream.
var ErrFormat = errors.New("mgard: malformed stream")

// Options configures compression.
type Options struct {
	// EB is the absolute error bound.
	EB float64
	// Levels caps the hierarchy depth; 0 selects the maximum for the grid.
	Levels int
	// Workers > 1 parallelizes the per-level class passes.
	Workers int
}

// laplacianKappa is the weight of the projection-like correction term.
const laplacianKappa = 0.125

// maxLevels returns the deepest hierarchy usable for the dims.
func maxLevels(nz, ny, nx int) int {
	maxDim := nz
	if ny > maxDim {
		maxDim = ny
	}
	if nx > maxDim {
		maxDim = nx
	}
	l := 0
	for (maxDim-1)>>uint(l) >= 2 && l < 6 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// levelLattice returns the grid of nodes at hierarchy level l (stride 2^l).
func levelLattice[T grid.Float](g *grid.Grid[T], l int) *grid.Grid[T] {
	return g.ExtractStride(grid.Offset3{}, 1<<uint(l))
}

// predictNode predicts a non-coarse node of the level-l lattice from the
// level-(l+1) lattice c (class-0 of the level-l lattice) using multilinear
// interpolation plus a Laplacian correction on the base corner.
func predictNode[T grid.Float](c *grid.Grid[T], off grid.Offset3, k, j, i int) T {
	// Multilinear: mean of the in-range inner corners.
	var sum T
	var cnt int
	for bz := 0; bz <= off.Z; bz++ {
		kz := k + bz
		if kz >= c.Nz {
			continue
		}
		for by := 0; by <= off.Y; by++ {
			jy := j + by
			if jy >= c.Ny {
				continue
			}
			for bx := 0; bx <= off.X; bx++ {
				ix := i + bx
				if ix >= c.Nx {
					continue
				}
				sum += c.Data[(kz*c.Ny+jy)*c.Nx+ix]
				cnt++
			}
		}
	}
	pred := sum / T(cnt)
	// Projection-like correction: κ·(mean of base-corner axis neighbours −
	// base). Deterministic from the coarse lattice, so the decompressor can
	// reproduce it exactly.
	base := c.Data[(k*c.Ny+j)*c.Nx+i]
	var lap T
	var ln int
	if k > 0 {
		lap += c.Data[((k-1)*c.Ny+j)*c.Nx+i]
		ln++
	}
	if k+1 < c.Nz {
		lap += c.Data[((k+1)*c.Ny+j)*c.Nx+i]
		ln++
	}
	if j > 0 {
		lap += c.Data[(k*c.Ny+j-1)*c.Nx+i]
		ln++
	}
	if j+1 < c.Ny {
		lap += c.Data[(k*c.Ny+j+1)*c.Nx+i]
		ln++
	}
	if i > 0 {
		lap += c.Data[(k*c.Ny+j)*c.Nx+i-1]
		ln++
	}
	if i+1 < c.Nx {
		lap += c.Data[(k*c.Ny+j)*c.Nx+i+1]
		ln++
	}
	if ln > 0 {
		pred += T(laplacianKappa) * (lap/T(ln) - base)
	}
	return pred
}

func dtypeOf[T grid.Float]() byte {
	var v T
	if _, ok := any(v).(float32); ok {
		return 4
	}
	return 8
}

func putValue[T grid.Float](buf *bytes.Buffer, v T) {
	switch x := any(v).(type) {
	case float32:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		buf.Write(b[:])
	case float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		buf.Write(b[:])
	}
}

func getValues[T grid.Float](data []byte, n int) ([]T, error) {
	var v T
	eb := 8
	if _, ok := any(v).(float32); ok {
		eb = 4
	}
	if len(data) < n*eb {
		return nil, fmt.Errorf("%w: value data truncated", ErrFormat)
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		if eb == 4 {
			out[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
		} else {
			out[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
		}
	}
	return out, nil
}

// levelEB is the quantization bound for the classes refined at hierarchy
// level l (l = 0 is the finest): coarser levels are tightened by 2× per
// level, as MGARD's multilevel error theory requires.
func levelEB(eb float64, l int) float64 {
	return eb / math.Pow(2, float64(l))
}

// coarsestEB is the bound for the coarsest lattice nodes.
func coarsestEB(eb float64, levels int) float64 {
	return levelEB(eb, levels)
}

// classSection encodes one per-level parity-class payload:
// u32 outlier count, outlier values, Huffman blob.
func classSection[T grid.Float](codes []uint16, outliers *bytes.Buffer, nOut uint32, alphabet int) []byte {
	sec := &bytes.Buffer{}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], nOut)
	sec.Write(cnt[:])
	sec.Write(outliers.Bytes())
	sec.Write(huffman.Encode(codes, alphabet))
	return sec.Bytes()
}

// Compress encodes g under o.EB.
func Compress[T grid.Float](g *grid.Grid[T], o Options) ([]byte, error) {
	if !(o.EB > 0) || math.IsInf(o.EB, 0) {
		return nil, fmt.Errorf("mgard: invalid error bound %g", o.EB)
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("mgard: empty grid")
	}
	levels := o.Levels
	if levels <= 0 || levels > maxLevels(g.Nz, g.Ny, g.Nx) {
		levels = maxLevels(g.Nz, g.Ny, g.Nx)
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	radius := int32(quant.DefaultRadius)

	// Coarsest lattice: quantize nodes against a running mean predictor.
	coarsest := levelLattice(g, levels)
	qc := quant.Quantizer{EB: coarsestEB(o.EB, levels), Radius: radius}
	cCodes := make([]uint16, coarsest.Len())
	cOut := &bytes.Buffer{}
	var cN uint32
	coarseRecon := grid.New[T](coarsest.Nz, coarsest.Ny, coarsest.Nx)
	var prev T
	for i, v := range coarsest.Data {
		code, rec, ok := quant.QuantizeT(qc, v, float64(prev))
		if !ok {
			putValue(cOut, v)
			cN++
			cCodes[i] = 0
			coarseRecon.Data[i] = v
			prev = v
			continue
		}
		cCodes[i] = code
		coarseRecon.Data[i] = rec
		prev = rec
	}

	sections := [][]byte{classSection[T](cCodes, cOut, cN, qc.Alphabet())}

	// Refine level by level, coarse to fine.
	classes := grid.Stride2Offsets[1:]
	for l := levels - 1; l >= 0; l-- {
		lat := levelLattice(g, l)
		q := quant.Quantizer{EB: levelEB(o.EB, l), Radius: radius}
		fineRecon := grid.New[T](lat.Nz, lat.Ny, lat.Nx)
		fineRecon.InsertStride(coarseRecon, grid.Offset3{}, 2)

		secs := make([][]byte, len(classes))
		parallel.For(len(classes), workers, func(ci int) {
			off := classes[ci]
			bz := grid.SubDim(lat.Nz, off.Z, 2)
			by := grid.SubDim(lat.Ny, off.Y, 2)
			bx := grid.SubDim(lat.Nx, off.X, 2)
			codes := make([]uint16, bz*by*bx)
			outl := &bytes.Buffer{}
			var nOut uint32
			idx := 0
			for k := 0; k < bz; k++ {
				for j := 0; j < by; j++ {
					for i := 0; i < bx; i++ {
						zf, yf, xf := 2*k+off.Z, 2*j+off.Y, 2*i+off.X
						v := lat.At(zf, yf, xf)
						pred := predictNode(coarseRecon, off, k, j, i)
						code, rec, ok := quant.QuantizeT(q, v, float64(pred))
						if !ok {
							putValue(outl, v)
							nOut++
							codes[idx] = 0
							fineRecon.Set(zf, yf, xf, v)
						} else {
							codes[idx] = code
							fineRecon.Set(zf, yf, xf, rec)
						}
						idx++
					}
				}
			}
			secs[ci] = classSection[T](codes, outl, nOut, q.Alphabet())
		})
		sections = append(sections, secs...)
		coarseRecon = fineRecon
	}

	out := &bytes.Buffer{}
	var hdr [38]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = dtypeOf[T]()
	hdr[5] = byte(levels)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(hdr[14:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(hdr[18:], math.Float64bits(o.EB))
	binary.LittleEndian.PutUint32(hdr[26:], uint32(radius))
	binary.LittleEndian.PutUint32(hdr[30:], uint32(len(sections)))
	out.Write(hdr[:38])
	for _, s := range sections {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
		out.Write(l[:])
	}
	for _, s := range sections {
		out.Write(s)
	}
	return out.Bytes(), nil
}

type parsed struct {
	dtype    byte
	levels   int
	nz, ny   int
	nx       int
	eb       float64
	radius   int32
	sections [][]byte
}

// Dims returns the grid dims a stream declares, validated as the decoder
// validates them, without decoding anything.
func Dims(data []byte) (nz, ny, nx int, err error) {
	if len(data) < 38 || binary.LittleEndian.Uint32(data) != Magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	nz = int(binary.LittleEndian.Uint32(data[6:]))
	ny = int(binary.LittleEndian.Uint32(data[10:]))
	nx = int(binary.LittleEndian.Uint32(data[14:]))
	if int64(nz)*int64(ny)*int64(nx) > 1<<33 || nz < 0 || ny < 0 || nx < 0 {
		return 0, 0, 0, fmt.Errorf("%w: implausible dims", ErrFormat)
	}
	return nz, ny, nx, nil
}

func parse[T grid.Float](data []byte) (*parsed, error) {
	if len(data) < 38 || binary.LittleEndian.Uint32(data) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	p := &parsed{}
	p.dtype = data[4]
	if p.dtype != dtypeOf[T]() {
		return nil, fmt.Errorf("%w: element type mismatch", ErrFormat)
	}
	p.levels = int(data[5])
	p.nz = int(binary.LittleEndian.Uint32(data[6:]))
	p.ny = int(binary.LittleEndian.Uint32(data[10:]))
	p.nx = int(binary.LittleEndian.Uint32(data[14:]))
	p.eb = math.Float64frombits(binary.LittleEndian.Uint64(data[18:]))
	p.radius = int32(binary.LittleEndian.Uint32(data[26:]))
	nSec := int(binary.LittleEndian.Uint32(data[30:]))
	if p.levels < 1 || p.levels > 6 || !(p.eb > 0) || p.radius <= 0 {
		return nil, fmt.Errorf("%w: bad header", ErrFormat)
	}
	if nSec != 1+7*p.levels {
		return nil, fmt.Errorf("%w: section count %d", ErrFormat, nSec)
	}
	if int64(p.nz)*int64(p.ny)*int64(p.nx) > 1<<33 || p.nz < 0 || p.ny < 0 || p.nx < 0 {
		return nil, fmt.Errorf("%w: implausible dims", ErrFormat)
	}
	pos := 38
	lens := make([]int, nSec)
	for i := range lens {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated directory", ErrFormat)
		}
		lens[i] = int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
	}
	p.sections = make([][]byte, nSec)
	for i, l := range lens {
		if l < 0 || pos+l > len(data) {
			return nil, fmt.Errorf("%w: truncated section %d", ErrFormat, i)
		}
		p.sections[i] = data[pos : pos+l]
		pos += l
	}
	return p, nil
}

// decodeSection decodes codes and outliers from a class payload.
func decodeSection[T grid.Float](sec []byte, alphabet int) ([]uint16, []T, error) {
	if len(sec) < 4 {
		return nil, nil, fmt.Errorf("%w: section too short", ErrFormat)
	}
	nOut := int(binary.LittleEndian.Uint32(sec))
	var v T
	eb := 8
	if _, ok := any(v).(float32); ok {
		eb = 4
	}
	if 4+nOut*eb > len(sec) {
		return nil, nil, fmt.Errorf("%w: outliers truncated", ErrFormat)
	}
	outliers, err := getValues[T](sec[4:], nOut)
	if err != nil {
		return nil, nil, err
	}
	codes, err := huffman.Decode(sec[4+nOut*eb:], alphabet)
	if err != nil {
		return nil, nil, fmt.Errorf("mgard: %w", err)
	}
	return codes, outliers, nil
}

// latticeDims returns the dims of the level-l node lattice.
func latticeDims(nz, ny, nx, l int) (int, int, int) {
	s := 1 << uint(l)
	return grid.SubDim(nz, 0, s), grid.SubDim(ny, 0, s), grid.SubDim(nx, 0, s)
}

// DecompressProgressive reconstructs the level-upto lattice (upto = 0 is
// the full grid, upto = levels is the coarsest).
func DecompressProgressive[T grid.Float](data []byte, upto int) (*grid.Grid[T], error) {
	p, err := parse[T](data)
	if err != nil {
		return nil, err
	}
	if upto < 0 || upto > p.levels {
		return nil, fmt.Errorf("mgard: level %d out of range [0,%d]", upto, p.levels)
	}
	// Coarsest lattice.
	cz, cy, cx := latticeDims(p.nz, p.ny, p.nx, p.levels)
	qc := quant.Quantizer{EB: coarsestEB(p.eb, p.levels), Radius: p.radius}
	codes, outliers, err := decodeSection[T](p.sections[0], qc.Alphabet())
	if err != nil {
		return nil, err
	}
	if len(codes) != cz*cy*cx {
		return nil, fmt.Errorf("%w: coarsest size mismatch", ErrFormat)
	}
	cur := grid.New[T](cz, cy, cx)
	var prev T
	oi := 0
	for i, code := range codes {
		if code == 0 {
			if oi >= len(outliers) {
				return nil, fmt.Errorf("%w: outliers exhausted", ErrFormat)
			}
			cur.Data[i] = outliers[oi]
			oi++
		} else {
			cur.Data[i] = quant.DequantizeT[T](qc, code, float64(prev))
		}
		prev = cur.Data[i]
	}

	classes := grid.Stride2Offsets[1:]
	for l := p.levels - 1; l >= upto; l-- {
		fz, fy, fx := latticeDims(p.nz, p.ny, p.nx, l)
		q := quant.Quantizer{EB: levelEB(p.eb, l), Radius: p.radius}
		fine := grid.New[T](fz, fy, fx)
		fine.InsertStride(cur, grid.Offset3{}, 2)
		secBase := 1 + 7*(p.levels-1-l)
		for ci, off := range classes {
			codes, outliers, err := decodeSection[T](p.sections[secBase+ci], q.Alphabet())
			if err != nil {
				return nil, err
			}
			bz := grid.SubDim(fz, off.Z, 2)
			by := grid.SubDim(fy, off.Y, 2)
			bx := grid.SubDim(fx, off.X, 2)
			if len(codes) != bz*by*bx {
				return nil, fmt.Errorf("%w: class size mismatch", ErrFormat)
			}
			idx, oi := 0, 0
			for k := 0; k < bz; k++ {
				for j := 0; j < by; j++ {
					for i := 0; i < bx; i++ {
						zf, yf, xf := 2*k+off.Z, 2*j+off.Y, 2*i+off.X
						code := codes[idx]
						idx++
						if code == 0 {
							if oi >= len(outliers) {
								return nil, fmt.Errorf("%w: outliers exhausted", ErrFormat)
							}
							fine.Set(zf, yf, xf, outliers[oi])
							oi++
							continue
						}
						pred := predictNode(cur, off, k, j, i)
						fine.Set(zf, yf, xf, quant.DequantizeT[T](q, code, float64(pred)))
					}
				}
			}
		}
		cur = fine
	}
	return cur, nil
}

// Decompress reconstructs the full grid.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	return DecompressProgressive[T](data, 0)
}

// Levels reports the hierarchy depth of a stream.
func Levels[T grid.Float](data []byte) (int, error) {
	p, err := parse[T](data)
	if err != nil {
		return 0, err
	}
	return p.levels, nil
}
