package core

import (
	"stz/internal/grid"
)

// level is one predicted level prepared for sweeping: the fine dims, and per
// parity class (grid.Stride2Offsets order; class 0 is the coarse grid
// itself) its dims and row generator.
type level[T grid.Float] struct {
	fz, fy, fx int
	dims       [8][3]int
	gens       [8]rowGen[T]
}

// newLevel lays out the level of fine dims (fz, fy, fx) — geometry only, so
// a decode can plan every level before any is reconstructed; predictFrom
// then binds the row generators.
func newLevel[T grid.Float](fz, fy, fx int) *level[T] {
	lv := &level[T]{fz: fz, fy: fy, fx: fx}
	for c, off := range grid.Stride2Offsets {
		bz, by, bx := classDims(off, fz, fy, fx)
		lv.dims[c] = [3]int{bz, by, bx}
	}
	return lv
}

// predictFrom binds the row generators to the reconstructed coarse grid, of
// which w holds the window from coarse point o on.
func (lv *level[T]) predictFrom(w *grid.Grid[T], o grid.Offset3, kind Predictor) {
	for c, off := range grid.Stride2Offsets {
		lv.gens[c] = newRowGen(w, o, lv.dims[0], off, kind)
	}
}

// classLen is the number of points of class c.
func (lv *level[T]) classLen(c int) int {
	d := lv.dims[c]
	return d[0] * d[1] * d[2]
}

// subBoxes maps the fine box b to each class's coordinates.
func (lv *level[T]) subBoxes(b grid.Box) (sb [8]grid.Box) {
	for c, off := range grid.Stride2Offsets {
		sb[c] = grid.SubBox(b, off, 2, lv.fz, lv.fy, lv.fx)
	}
	return sb
}

// sweep is the one traversal of a predicted level, shared by the compressor
// and every decode. The unit of work is a coarse row (k, j): class c's row
// (k, j) is the fine row (2k+off.Z, 2j+off.Y) at the x positions of parity
// off.X, so the eight classes' rows at (k, j) interleave into up to four
// whole fine lines, all predicted from the same 4×4 coarse rows while those
// sit in L1. For every k in [k0, k1), every j, and every class c whose row
// (k, j) meets its sub-box sb[c], sweep calls visit with the class x-range
// [lo, hi) of the row inside sb[c] and — for a predicted class; class 0 is
// the coarse row itself — the predictions of those points in preds[:hi-lo].
// Classes are visited in index order, so each class sees its points in
// row-major order whatever [k0, k1) split the caller runs in parallel.
func (lv *level[T]) sweep(sb *[8]grid.Box, k0, k1 int, preds []T, visit func(c, k, j, lo, hi int, preds []T)) {
	j0, j1 := lv.dims[0][1], 0
	for _, s := range sb {
		if !s.Empty() {
			j0, j1 = min(j0, s.Y0), max(j1, s.Y1)
		}
	}
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for c := range sb {
				s := &sb[c]
				if k < s.Z0 || k >= s.Z1 || j < s.Y0 || j >= s.Y1 || s.X0 >= s.X1 {
					continue
				}
				row := preds[:s.X1-s.X0]
				if c > 0 {
					lv.gens[c].row(k, j, s.X0, s.X1, row)
				}
				visit(c, k, j, s.X0, s.X1, row)
			}
		}
	}
}

// zBlocks is the number of contiguous blocks (parallel.Chunks) the sweep of n
// coarse planes runs in parallel: one for a single worker, otherwise a few
// per worker so a stalled core does not hold the level up.
func zBlocks(n, workers int) int {
	if workers <= 1 {
		return 1
	}
	return max(1, min(n, 4*workers))
}

// spread writes src to every second element of dst: a class row into its
// fine row.
func spread[T grid.Float](dst, src []T) {
	for i, v := range src {
		dst[2*i] = v
	}
}
