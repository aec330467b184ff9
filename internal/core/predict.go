package core

import (
	"fmt"
	"unsafe"

	"stz/internal/grid"
)

// rowGen predicts whole rows of one parity class from the coarse grid: the
// one prediction generator behind the compressor, every decode and
// PredictClasses. It applies predictPoint's kernel ladder a row span at a
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
// Every operation rounds to T on its own: nothing is fused (a product is
// converted to T before it is subtracted), and the cubic AVX2 kernel adds
// in cubicRowGo's order.
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

// span is the n data points from b on: one stencil row of a kernel. Each
// kernel takes every row its stencil reads as a span of its output's length,
// so its per-point loop indexes them all with the loop counter and carries
// no bounds check; the spans cover exactly the points the loop reads. An
// empty output reads nothing, and its spans may start past the window, so
// a kernel that can be handed one returns before slicing.
func (g *rowGen[T]) span(b, n int) []T { return g.data[b:][:n] }

// edgeRow is predictPoint's boundary ladder over a span: the mean of the
// 2^len(ds) inner corners reached by the strides ds, summed in
// predictPoint's order from its zero accumulator (0 + x is not x for x =
// −0). With every offset axis in ds it is the linear kernel; with some
// dropped, the partial mean; with none, the base corner.
func (g *rowGen[T]) edgeRow(b0 int, ds []int, out []T) {
	n := len(out)
	if n == 0 {
		return
	}
	switch len(ds) {
	case 0:
		a := g.span(b0, n)
		for t := range out {
			out[t] = 0 + a[t]
		}
	case 1:
		d := ds[0]
		a, b := g.span(b0, n), g.span(b0+d, n)
		for t := range out {
			out[t] = (0 + a[t] + b[t]) / 2
		}
	case 2:
		d1, d2 := ds[0], ds[1]
		a, b := g.span(b0, n), g.span(b0+d2, n)
		c, e := g.span(b0+d1, n), g.span(b0+d1+d2, n)
		for t := range out {
			out[t] = (0 + a[t] + b[t] + c[t] + e[t]) / 4
		}
	default:
		d1, d2, d3 := ds[0], ds[1], ds[2]
		a0, a1 := g.span(b0, n), g.span(b0+d3, n)
		a2, a3 := g.span(b0+d2, n), g.span(b0+d2+d3, n)
		a4, a5 := g.span(b0+d1, n), g.span(b0+d1+d3, n)
		a6, a7 := g.span(b0+d1+d2, n), g.span(b0+d1+d2+d3, n)
		for t := range out {
			s := 0 + a0[t] + a1[t] + a2[t] + a3[t] + a4[t] + a5[t] + a6[t] + a7[t]
			out[t] = s / 8
		}
	}
}

// linearRow is the linear kernel (Eqs. 3–5) of a PredLinear stream over a
// span whose inner corners all exist.
func (g *rowGen[T]) linearRow(b0 int, ds []int, out []T) {
	n := len(out)
	if n == 0 {
		return
	}
	switch len(ds) {
	case 1:
		d := ds[0]
		a, b := g.span(b0, n), g.span(b0+d, n)
		for t := range out {
			out[t] = (a[t] + b[t]) / 2
		}
	case 2:
		d1, d2 := ds[0], ds[1]
		a, b := g.span(b0, n), g.span(b0+d1, n)
		c, e := g.span(b0+d2, n), g.span(b0+d1+d2, n)
		for t := range out {
			out[t] = (a[t] + b[t] + c[t] + e[t]) / 4
		}
	default:
		d1, d2, d3 := ds[0], ds[1], ds[2]
		a0, a1 := g.span(b0, n), g.span(b0+d3, n)
		a2, a3 := g.span(b0+d2, n), g.span(b0+d2+d3, n)
		a4, a5 := g.span(b0+d1, n), g.span(b0+d1+d3, n)
		a6, a7 := g.span(b0+d1+d2, n), g.span(b0+d1+d2+d3, n)
		for t := range out {
			s := a0[t] + a1[t] + a2[t] + a3[t] + a4[t] + a5[t] + a6[t] + a7[t]
			out[t] = s / 8
		}
	}
}

// cubicRow is the cubic kernel (Eqs. 6–8) over a span whose inner and outer
// corners all exist. A float32 span of at least eight points goes eight
// points at a time through the AVX2 kernel where the CPU has one
// (cubicRow8); shorter spans, and every float64 span, run cubicRowGo.
func (g *rowGen[T]) cubicRow(b0 int, ds []int, xOff bool, out []T) {
	if len(out) >= 8 && hasCubicKernel && unsafe.Sizeof(T(0)) == 4 {
		g.cubicRow8(b0, ds, xOff, out)
		return
	}
	g.cubicRowGo(b0, ds, xOff, out)
}

// cubicShape is one of cubicRow's interior stencils as the vector kernel
// takes it. Per point t it sums, left to right, the first chain points of
// the inner stencil rows in[i][t] — and, with cols 2, adds the same sum one
// point on — then does the same for the outer rows out[i] with the second
// column three points on, and writes inner·9·scale − outer·scale. Those are
// cubicRowGo's operations in its order: its shared column sums are the
// pairs of columns here, and its /16, /32 and /64 round exactly as a
// multiplication by their reciprocal does.
type cubicShape struct {
	in, out     [4]*float32 // the stencil rows' first points
	chain, cols int         // rows per column sum (2 or 4); columns (1 or 2)
	scale       float32     // 1/16, 1/32 or 1/64
}

// cubicRow8 runs the cubic kernel over out, a float32 span of at least
// eight points. Its groups of eight are those from the span's start and,
// for the last n mod 8 points, one more that ends on its last point and
// writes the up to seven points it shares with the group before again, with
// the same bits. Every stencil row it reads is taken through g.span first,
// covering exactly the points the kernel loads, so a row outside the window
// panics here, never in the kernel.
func (g *rowGen[T]) cubicRow8(b0 int, ds []int, xOff bool, out []T) {
	n := len(out)
	var s cubicShape
	in, o := &s.in, &s.out
	switch {
	case len(ds) == 1 && xOff:
		in[0], in[1] = g.span32(b0, n), g.span32(b0+1, n)
		o[0], o[1] = g.span32(b0-1, n), g.span32(b0+2, n)
		s.chain, s.cols, s.scale = 2, 1, 1.0/16
	case len(ds) == 1:
		d := ds[0]
		in[0], in[1] = g.span32(b0, n), g.span32(b0+d, n)
		o[0], o[1] = g.span32(b0-d, n), g.span32(b0+2*d, n)
		s.chain, s.cols, s.scale = 2, 1, 1.0/16
	case len(ds) == 2 && xOff:
		d1 := ds[0]
		in[0], in[1] = g.span32(b0, n+1), g.span32(b0+d1, n+1)
		o[0], o[1] = g.span32(b0-d1-1, n+3), g.span32(b0+2*d1-1, n+3)
		s.chain, s.cols, s.scale = 2, 2, 1.0/32
	case len(ds) == 2:
		d1, d2 := ds[0], ds[1]
		in[0], in[1] = g.span32(b0, n), g.span32(b0+d1, n)
		in[2], in[3] = g.span32(b0+d2, n), g.span32(b0+d1+d2, n)
		o[0], o[1] = g.span32(b0-d1-d2, n), g.span32(b0-d1+2*d2, n)
		o[2], o[3] = g.span32(b0+2*d1-d2, n), g.span32(b0+2*d1+2*d2, n)
		s.chain, s.cols, s.scale = 4, 1, 1.0/32
	default:
		d1, d2 := ds[0], ds[1]
		in[0], in[1] = g.span32(b0, n+1), g.span32(b0+d2, n+1)
		in[2], in[3] = g.span32(b0+d1, n+1), g.span32(b0+d1+d2, n+1)
		o[0], o[1] = g.span32(b0-d1-d2-1, n+3), g.span32(b0-d1+2*d2-1, n+3)
		o[2], o[3] = g.span32(b0+2*d1-d2-1, n+3), g.span32(b0+2*d1+2*d2-1, n+3)
		s.chain, s.cols, s.scale = 4, 2, 1.0/64
	}
	cubicRowAVX2(&s, (*float32)(unsafe.Pointer(&out[0])), n)
}

// span32 is the first point of the float32 span g.span(b, n).
func (g *rowGen[T]) span32(b, n int) *float32 {
	return (*float32)(unsafe.Pointer(&g.span(b, n)[0]))
}

// cubicRowGo is cubicRow in Go, one point at a time: the reference the
// kernel is held to, and the loop for every span the kernel does not take.
// When x is an offset axis (xOff: the last stride is 1) the column sums are
// shared between consecutive points. Each product is rounded before the
// subtraction (T(…)), so no back end fuses it.
func (g *rowGen[T]) cubicRowGo(b0 int, ds []int, xOff bool, out []T) {
	n, data := len(out), g.data
	switch {
	case len(ds) == 1 && xOff:
		// Rolling window along x: one load per point.
		v0, v1, v2 := data[b0-1], data[b0], data[b0+1]
		next := g.span(b0+2, n)
		for t := range out {
			v3 := next[t]
			out[t] = T((v1+v2)*9/16) - T((v0+v3)/16)
			v0, v1, v2 = v1, v2, v3
		}
	case len(ds) == 1:
		d := ds[0]
		a, b := g.span(b0, n), g.span(b0+d, n)
		m, p := g.span(b0-d, n), g.span(b0+2*d, n)
		for t := range out {
			out[t] = T((a[t]+b[t])*9/16) - T((m[t]+p[t])/16)
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
		i0, i1 := g.span(r0+1, n), g.span(r1+1, n)
		m, p := g.span(rm+2, n), g.span(rp+2, n)
		for t := range out {
			cI1 := i0[t] + i1[t]
			o3 := m[t] + p[t]
			out[t] = T((cI+cI1)*9/32) - T((o0+o3)/32)
			cI = cI1
			o0, o1, o2 = o1, o2, o3
		}
	case len(ds) == 2:
		d1, d2 := ds[0], ds[1]
		a, b := g.span(b0, n), g.span(b0+d1, n)
		c, e := g.span(b0+d2, n), g.span(b0+d1+d2, n)
		m0, m1 := g.span(b0-d1-d2, n), g.span(b0-d1+2*d2, n)
		m2, m3 := g.span(b0+2*d1-d2, n), g.span(b0+2*d1+2*d2, n)
		for t := range out {
			in := a[t] + b[t] + c[t] + e[t]
			outSum := m0[t] + m1[t] + m2[t] + m3[t]
			out[t] = T(in*9/32) - T(outSum/32)
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
		i00, i01 := g.span(r00+1, n), g.span(r01+1, n)
		i10, i11 := g.span(r10+1, n), g.span(r11+1, n)
		o00, o01 := g.span(m0+2, n), g.span(m1+2, n)
		o10, o11 := g.span(m2+2, n), g.span(m3+2, n)
		for t := range out {
			cI1 := i00[t] + i01[t] + i10[t] + i11[t]
			o3 := o00[t] + o01[t] + o10[t] + o11[t]
			out[t] = T((cI+cI1)*9/64) - T((o0+o3)/64)
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

// PredictClasses is one hierarchy level's cross-level prediction and
// nothing else: from coarse, the stride-2 lattice (class 0) of a fine grid
// of dims (fz, fy, fx), kernel p predicts every other point of the fine
// grid, exactly as the compressor and every decode do. Element c = 1..7 of
// the result (grid.Stride2Offsets order) holds class c's predictions in
// class-grid coordinates; element 0 is coarse itself, so once each class
// has its residual added back the eight assemble (grid.AssembleStride2)
// into the fine grid. It serves the Fig. 5 ablation rungs that code the
// residuals with another compressor (internal/bench). It panics when
// coarse is not the lattice of such a grid.
func PredictClasses[T grid.Float](coarse *grid.Grid[T], fz, fy, fx int, p Predictor) [8]*grid.Grid[T] {
	lv := newLevel[T](fz, fy, fx)
	if d := lv.dims[0]; coarse.Nz != d[0] || coarse.Ny != d[1] || coarse.Nx != d[2] {
		panic(fmt.Sprintf("core: PredictClasses: coarse grid %dx%dx%d is not the lattice of %dx%dx%d",
			coarse.Nz, coarse.Ny, coarse.Nx, fz, fy, fx))
	}
	lv.predictFrom(coarse, grid.Offset3{}, p)
	out := [8]*grid.Grid[T]{coarse}
	for c := 1; c < 8; c++ {
		d := lv.dims[c]
		out[c] = grid.New[T](d[0], d[1], d[2])
		for k := 0; k < d[0]; k++ {
			for j := 0; j < d[1]; j++ {
				lv.gens[c].row(k, j, 0, d[2], out[c].Data[(k*d[1]+j)*d[2]:])
			}
		}
	}
	return out
}
