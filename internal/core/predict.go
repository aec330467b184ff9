package core

import (
	"stz/internal/grid"
)

// rowGen predicts whole rows of one parity class from the coarse grid: the
// one prediction generator behind the compressor, every decode and the
// ResidSZ3 ablation. It applies predictPoint's kernel ladder a row span at a
// time with unrolled stencils.
//
// Summation order is part of the stream format — the encoder and every
// decoder must round identically — and differs by kernel:
//
//   - cubicRow and linearRow (the kernel the stream asks for, where its full
//     stencil is in range) add in the orders written there: shared column
//     sums for cubic, (b, b+d1, b+d2, b+d1+d2) for two-axis linear;
//   - edgeRow (every fallback: linear beside a cubic stream's lattice edge,
//     and the mean of the in-range inner corners where one is missing) adds
//     in predictPoint's order, x fastest: (b, b+d2, b+d1, b+d1+d2).
//
// The generator may read a window of the coarse grid: data holds the coarse
// points from some origin on, with plane and row strides sz and sy, and
// every boundary decision is taken on the grid's full dims (cz, cy, cx), so
// a window predicts exactly what the whole grid would wherever the stencil
// stays inside it.
type rowGen[T grid.Float] struct {
	data       []T
	org        int // coarse point (k, j, i) is data[k*sz + j*sy + i - org]
	sz, sy     int
	cz, cy, cx int
	off        grid.Offset3
	kind       Predictor
}

// newRowGen predicts class off from w, the window of a coarse grid of dims
// cdims whose element (0,0,0) is coarse point o.
func newRowGen[T grid.Float](w *grid.Grid[T], o grid.Offset3, cdims [3]int, off grid.Offset3, kind Predictor) rowGen[T] {
	sz, sy := w.Ny*w.Nx, w.Nx
	return rowGen[T]{data: w.Data, org: o.Z*sz + o.Y*sy + o.X, sz: sz, sy: sy,
		cz: cdims[0], cy: cdims[1], cx: cdims[2], off: off, kind: kind}
}

// row fills out[t] with the prediction of the class point (k, j, lo+t) for
// every class x-index in [lo, hi).
func (g *rowGen[T]) row(k, j, lo, hi int, out []T) {
	base := k*g.sz + j*g.sy + lo - g.org
	out = out[:hi-lo]
	if g.kind == PredDirect {
		copy(out, g.data[base:])
		return
	}
	// ds[:n] are the strides of the offset axes whose upper inner corner is
	// in range, z before y before x. inner: every offset axis has it (else
	// the row takes the partial mean); cubic: the outer corners exist too.
	// unit: the last of them has stride 1 in the whole grid, which picks the
	// cubic kernel's summation order — decided on the whole grid, since a
	// window only one point wide would otherwise pick another.
	var ds [3]int
	n := 0
	inner, cubic, unit := true, g.kind == PredCubic, false
	axis := func(o, k, cdim, stride, whole int) {
		if o == 0 {
			return
		}
		if k+1 >= cdim {
			inner = false
			return
		}
		ds[n] = stride
		n++
		unit = whole == 1
		cubic = cubic && k >= 1 && k+2 < cdim
	}
	axis(g.off.Z, k, g.cz, g.sz, g.cy*g.cx)
	axis(g.off.Y, j, g.cy, g.sy, g.cx)

	// Along an offset x axis the last lattice column has no inner corner:
	// [lo, xe) is the part of the row that does.
	xe, nx := hi, n
	if g.off.X == 1 {
		xe = max(lo, min(hi, g.cx-1))
		ds[n] = 1
		nx = n + 1
		unit = true
	}
	switch {
	case !inner || (g.kind == PredCubic && !cubic):
		g.edgeRow(base, ds[:nx], out[:xe-lo])
	case g.kind == PredLinear:
		g.linearRow(base, ds[:nx], out[:xe-lo])
	default:
		// Cubic where x has its outer corners, linear on either side.
		il, ih := lo, xe
		if g.off.X == 1 {
			il, ih = min(max(lo, 1), xe), max(min(xe, g.cx-2), lo)
		}
		if il >= ih {
			g.edgeRow(base, ds[:nx], out[:xe-lo])
			break
		}
		g.edgeRow(base, ds[:nx], out[:il-lo])
		g.cubicRow(base+il-lo, ds[:nx], unit, out[il-lo:ih-lo])
		g.edgeRow(base+ih-lo, ds[:nx], out[ih-lo:xe-lo])
	}
	if xe < hi {
		g.edgeRow(base+xe-lo, ds[:n], out[xe-lo:])
	}
}

// edgeRow is predictPoint's boundary ladder over a span: the mean of the
// 2^len(ds) inner corners reached by the strides ds, summed in
// predictPoint's order from its zero accumulator (0 + x is not x for x =
// −0). With every offset axis in ds it is the linear kernel; with some
// dropped, the partial mean; with none, the base corner.
func (g *rowGen[T]) edgeRow(b0 int, ds []int, out []T) {
	data := g.data
	switch len(ds) {
	case 0:
		for t := range out {
			out[t] = 0 + data[b0+t]
		}
	case 1:
		d := ds[0]
		for t := range out {
			b := b0 + t
			out[t] = (0 + data[b] + data[b+d]) / 2
		}
	case 2:
		d1, d2 := ds[0], ds[1]
		for t := range out {
			b := b0 + t
			out[t] = (0 + data[b] + data[b+d2] + data[b+d1] + data[b+d1+d2]) / 4
		}
	default:
		d1, d2, d3 := ds[0], ds[1], ds[2]
		for t := range out {
			b := b0 + t
			s := 0 + data[b] + data[b+d3] + data[b+d2] + data[b+d2+d3] +
				data[b+d1] + data[b+d1+d3] + data[b+d1+d2] + data[b+d1+d2+d3]
			out[t] = s / 8
		}
	}
}

// linearRow is the linear kernel (Eqs. 3–5) of a PredLinear stream over a
// span whose inner corners all exist.
func (g *rowGen[T]) linearRow(b0 int, ds []int, out []T) {
	data := g.data
	switch len(ds) {
	case 1:
		d := ds[0]
		for t := range out {
			b := b0 + t
			out[t] = (data[b] + data[b+d]) / 2
		}
	case 2:
		d1, d2 := ds[0], ds[1]
		for t := range out {
			b := b0 + t
			out[t] = (data[b] + data[b+d1] + data[b+d2] + data[b+d1+d2]) / 4
		}
	default:
		d1, d2, d3 := ds[0], ds[1], ds[2]
		for t := range out {
			b := b0 + t
			s := data[b] + data[b+d3] + data[b+d2] + data[b+d2+d3] +
				data[b+d1] + data[b+d1+d3] + data[b+d1+d2] + data[b+d1+d2+d3]
			out[t] = s / 8
		}
	}
}

// cubicRow is the cubic kernel (Eqs. 6–8) over a span whose inner and outer
// corners all exist. When x is an offset axis (xOff: the last stride is 1)
// the column sums are shared between consecutive points.
func (g *rowGen[T]) cubicRow(b0 int, ds []int, xOff bool, out []T) {
	data := g.data
	switch {
	case len(ds) == 1 && xOff:
		// Rolling window along x: one load per point.
		v0, v1, v2 := data[b0-1], data[b0], data[b0+1]
		for t := range out {
			v3 := data[b0+t+2]
			out[t] = (v1+v2)*9/16 - (v0+v3)/16
			v0, v1, v2 = v1, v2, v3
		}
	case len(ds) == 1:
		d := ds[0]
		for t := range out {
			b := b0 + t
			out[t] = (data[b]+data[b+d])*9/16 - (data[b-d]+data[b+2*d])/16
		}
	case len(ds) == 2 && xOff:
		// Columns shared between consecutive x: 4 loads per point.
		d1 := ds[0]
		r0, r1 := b0, b0+d1
		rm, rp := b0-d1, b0+2*d1
		cI := data[r0] + data[r1]
		o0 := data[rm-1] + data[rp-1]
		o1 := data[rm] + data[rp]
		o2 := data[rm+1] + data[rp+1]
		for t := range out {
			cI1 := data[r0+t+1] + data[r1+t+1]
			o3 := data[rm+t+2] + data[rp+t+2]
			out[t] = (cI+cI1)*9/32 - (o0+o3)/32
			cI = cI1
			o0, o1, o2 = o1, o2, o3
		}
	case len(ds) == 2:
		d1, d2 := ds[0], ds[1]
		for t := range out {
			b := b0 + t
			in := data[b] + data[b+d1] + data[b+d2] + data[b+d1+d2]
			outSum := data[b-d1-d2] + data[b-d1+2*d2] + data[b+2*d1-d2] + data[b+2*d1+2*d2]
			out[t] = in*9/32 - outSum/32
		}
	default:
		// The (1,1,1) class: shared columns give 8 loads per point, not 16.
		d1, d2 := ds[0], ds[1]
		r00, r01, r10, r11 := b0, b0+d2, b0+d1, b0+d1+d2
		m0 := b0 - d1 - d2
		m1 := b0 - d1 + 2*d2
		m2 := b0 + 2*d1 - d2
		m3 := b0 + 2*d1 + 2*d2
		colI := func(i int) T {
			return data[r00+i] + data[r01+i] + data[r10+i] + data[r11+i]
		}
		colO := func(i int) T {
			return data[m0+i] + data[m1+i] + data[m2+i] + data[m3+i]
		}
		cI := colI(0)
		o0, o1, o2 := colO(-1), colO(0), colO(1)
		for t := range out {
			cI1 := colI(t + 1)
			o3 := colO(t + 2)
			out[t] = (cI+cI1)*9/64 - (o0+o3)/64
			cI = cI1
			o0, o1, o2 = o1, o2, o3
		}
	}
}

// classDims returns the dimensions of the parity class off of a fine grid
// with dimensions (fz, fy, fx).
func classDims(off grid.Offset3, fz, fy, fx int) (int, int, int) {
	return grid.SubDim(fz, off.Z, 2), grid.SubDim(fy, off.Y, 2), grid.SubDim(fx, off.X, 2)
}

// predictedClasses lists the 7 non-zero parity classes in canonical order
// (grid.Stride2Offsets[1:]).
func predictedClasses() []grid.Offset3 {
	return grid.Stride2Offsets[1:]
}
