package core

import (
	"stz/internal/grid"
)

// classPredRows is the row-based prediction generator behind every fused
// kernel: it iterates the class points of off inside sb (class coordinates)
// in row-major order, filling preds[t] with the prediction of the point at
// class x-index i = sb.X0+t for each (k, j) row, then calls row once per
// row. The point's class linear index is ciRow + i and its fine linear
// index is fineRow + 2·i + off.X.
//
// Interior points are computed with unrolled stencils; points near the
// coarse-lattice boundary fall back to predictPoint, whose kernel-selection
// rules the fast paths replicate exactly. Emitting whole rows (instead of a
// per-point callback) keeps the stencil loops tight and lets consumers fuse
// quantization or reconstruction into a second tight loop over the row —
// one grid traversal, no per-point indirect calls, no residual slice.
func classPredRows[T grid.Float](coarse *grid.Grid[T], off grid.Offset3,
	fz, fy, fx int, sb grid.Box, kind Predictor, preds []T,
	row func(k, j, ciRow, fineRow int, preds []T)) {

	if sb.Empty() {
		return
	}
	_, by, bx := classDims(off, fz, fy, fx)
	cz, cy, cx := coarse.Nz, coarse.Ny, coarse.Nx
	data := coarse.Data
	strideZ := cy * cx
	strideY := cx
	rowZf := fy * fx
	lo, hi := sb.X0, sb.X1
	preds = preds[:hi-lo]

	if kind == PredDirect {
		for k := sb.Z0; k < sb.Z1; k++ {
			zf := 2*k + off.Z
			for j := sb.Y0; j < sb.Y1; j++ {
				yf := 2*j + off.Y
				baseRow := k*strideZ + j*strideY
				for i := lo; i < hi; i++ {
					preds[i-lo] = data[baseRow+i]
				}
				row(k, j, (k*by+j)*bx, zf*rowZf+yf*fx, preds)
			}
		}
		return
	}

	// Interior bounds per axis: a point is "interior" when the full stencil
	// of the requested kernel is in range along that axis.
	intLo := func(o int) int {
		if o == 1 && kind == PredCubic {
			return 1
		}
		return 0
	}
	intHi := func(o, cdim int) int {
		switch {
		case o == 0:
			return cdim
		case kind == PredCubic:
			return cdim - 2 // needs k+2 < cdim
		default:
			return cdim - 1 // linear needs k+1 < cdim
		}
	}
	zLo, zHi := intLo(off.Z), intHi(off.Z, cz)
	yLo, yHi := intLo(off.Y), intHi(off.Y, cy)
	xLo, xHi := intLo(off.X), intHi(off.X, cx)

	// Strides of the offset axes, ordered (d1, d2, d3) by z, y, x.
	var ds [3]int
	nOff := 0
	if off.Z == 1 {
		ds[nOff] = strideZ
		nOff++
	}
	if off.Y == 1 {
		ds[nOff] = strideY
		nOff++
	}
	if off.X == 1 {
		ds[nOff] = 1
		nOff++
	}

	for k := sb.Z0; k < sb.Z1; k++ {
		zf := 2*k + off.Z
		zInt := k >= zLo && k < zHi
		for j := sb.Y0; j < sb.Y1; j++ {
			yf := 2*j + off.Y
			yInt := j >= yLo && j < yHi
			ciRow := (k*by + j) * bx
			fineRow := zf*rowZf + yf*fx
			baseRow := k*strideZ + j*strideY

			if !zInt || !yInt {
				for i := lo; i < hi; i++ {
					preds[i-lo] = predictPoint(coarse, off, k, j, i, kind)
				}
				row(k, j, ciRow, fineRow, preds)
				continue
			}
			il, ih := lo, hi
			if il < xLo {
				il = xLo
			}
			if ih > xHi {
				ih = xHi
			}
			for i := lo; i < il && i < hi; i++ {
				preds[i-lo] = predictPoint(coarse, off, k, j, i, kind)
			}
			if il < ih {
				out := preds[il-lo:]
				switch {
				case kind == PredCubic && nOff == 1 && ds[0] == 1:
					// Rolling window along x: one load per point.
					v0, v1, v2 := data[baseRow+il-1], data[baseRow+il], data[baseRow+il+1]
					for i := il; i < ih; i++ {
						v3 := data[baseRow+i+2]
						out[i-il] = (v1+v2)*9/16 - (v0+v3)/16
						v0, v1, v2 = v1, v2, v3
					}
				case kind == PredCubic && nOff == 1:
					d := ds[0]
					for i := il; i < ih; i++ {
						b := baseRow + i
						out[i-il] = (data[b]+data[b+d])*9/16 - (data[b-d]+data[b+2*d])/16
					}
				case kind == PredCubic && nOff == 2 && ds[1] == 1:
					// Columns shared between consecutive x: 4 loads per point.
					d1 := ds[0]
					r0, r1 := baseRow, baseRow+d1
					rm, rp := baseRow-d1, baseRow+2*d1
					cI := data[r0+il] + data[r1+il]
					o0 := data[rm+il-1] + data[rp+il-1]
					o1 := data[rm+il] + data[rp+il]
					o2 := data[rm+il+1] + data[rp+il+1]
					for i := il; i < ih; i++ {
						cI1 := data[r0+i+1] + data[r1+i+1]
						o3 := data[rm+i+2] + data[rp+i+2]
						out[i-il] = (cI+cI1)*9/32 - (o0+o3)/32
						cI = cI1
						o0, o1, o2 = o1, o2, o3
					}
				case kind == PredCubic && nOff == 2:
					d1, d2 := ds[0], ds[1]
					for i := il; i < ih; i++ {
						b := baseRow + i
						in := data[b] + data[b+d1] + data[b+d2] + data[b+d1+d2]
						outSum := data[b-d1-d2] + data[b-d1+2*d2] + data[b+2*d1-d2] + data[b+2*d1+2*d2]
						out[i-il] = in*9/32 - outSum/32
					}
				case kind == PredCubic && nOff == 3:
					// The (1,1,1) class always has x as an offset axis:
					// shared columns give 8 loads per point instead of 16.
					d1, d2 := ds[0], ds[1]
					r00, r01, r10, r11 := baseRow, baseRow+d2, baseRow+d1, baseRow+d1+d2
					m0 := baseRow - d1 - d2
					m1 := baseRow - d1 + 2*d2
					m2 := baseRow + 2*d1 - d2
					m3 := baseRow + 2*d1 + 2*d2
					colI := func(i int) T {
						return data[r00+i] + data[r01+i] + data[r10+i] + data[r11+i]
					}
					colO := func(i int) T {
						return data[m0+i] + data[m1+i] + data[m2+i] + data[m3+i]
					}
					cI := colI(il)
					o0, o1, o2 := colO(il-1), colO(il), colO(il+1)
					for i := il; i < ih; i++ {
						cI1 := colI(i + 1)
						o3 := colO(i + 2)
						out[i-il] = (cI+cI1)*9/64 - (o0+o3)/64
						cI = cI1
						o0, o1, o2 = o1, o2, o3
					}
				case nOff == 1: // linear
					d := ds[0]
					for i := il; i < ih; i++ {
						b := baseRow + i
						out[i-il] = (data[b] + data[b+d]) / 2
					}
				case nOff == 2:
					d1, d2 := ds[0], ds[1]
					for i := il; i < ih; i++ {
						b := baseRow + i
						out[i-il] = (data[b] + data[b+d1] + data[b+d2] + data[b+d1+d2]) / 4
					}
				default: // nOff == 3, linear
					d1, d2, d3 := ds[0], ds[1], ds[2]
					for i := il; i < ih; i++ {
						b := baseRow + i
						s := data[b] + data[b+d3] + data[b+d2] + data[b+d2+d3] +
							data[b+d1] + data[b+d1+d3] + data[b+d1+d2] + data[b+d1+d2+d3]
						out[i-il] = s / 8
					}
				}
			}
			for i := ih; i < hi; i++ {
				if i < il {
					continue // already filled by the prefix loop
				}
				preds[i-lo] = predictPoint(coarse, off, k, j, i, kind)
			}
			row(k, j, ciRow, fineRow, preds)
		}
	}
}
