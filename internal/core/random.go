package core

import (
	"fmt"

	"stz/internal/codec"
	"stz/internal/grid"
)

// axisNeed computes the coarse-lattice index interval needed along one axis
// to predict the class-parity-o points of the fine interval [lo, hi), with
// the cubic stencil reach ([−1, +2] along offset axes, 0 otherwise).
// ok is false when the class has no points in the interval along this axis.
func axisNeed(lo, hi, o, cdim int) (k0, k1 int, ok bool) {
	// Class points: fine f = 2k + o with f in [lo, hi).
	kmin := (lo - o + 1) / 2
	if lo-o < 0 {
		kmin = 0
	}
	kmax := (hi - 1 - o) / 2
	if hi-1-o < 0 {
		return 0, 0, false
	}
	if kmax < kmin {
		return 0, 0, false
	}
	if o == 1 {
		kmin--
		kmax += 2
	}
	if kmin < 0 {
		kmin = 0
	}
	if kmax > cdim-1 {
		kmax = cdim - 1
	}
	if kmax < kmin {
		return 0, 0, false
	}
	return kmin, kmax + 1, true
}

// classNeed returns the coarse region required to predict the class points
// of off inside the fine box b; empty when the class has no points in b.
func classNeed(b grid.Box, off grid.Offset3, cz, cy, cx int) grid.Box {
	z0, z1, okz := axisNeed(b.Z0, b.Z1, off.Z, cz)
	y0, y1, oky := axisNeed(b.Y0, b.Y1, off.Y, cy)
	x0, x1, okx := axisNeed(b.X0, b.X1, off.X, cx)
	if !okz || !oky || !okx {
		return grid.Box{}
	}
	return grid.Box{Z0: z0, Y0: y0, X0: x0, Z1: z1, Y1: y1, X1: x1}
}

// neededCoarse returns the union over all predicted classes — plus the
// copy-through lattice — of the coarse regions required to reconstruct the
// fine box b exactly.
func neededCoarse(b grid.Box, cz, cy, cx int) grid.Box {
	var u grid.Box
	for _, off := range predictedClasses() {
		u = u.Union(classNeed(b, off, cz, cy, cx))
	}
	// Copy-through: fine points with all-even coords map to coarse f/2.
	u = u.Union(classNeed(b, grid.Offset3{}, cz, cy, cx))
	return u
}

// DecompressBox reconstructs only the region b — random-access
// decompression. The box must lie entirely inside the grid (codec.CheckBox;
// callers wanting clip semantics clip explicitly first). The result grid
// has the box's dimensions and is bit-identical to the same region of a
// full decompression.
func (r *Reader[T]) DecompressBox(b grid.Box) (*grid.Grid[T], *Stats, error) {
	outs, st, err := r.DecompressBoxes([]grid.Box{b})
	if err != nil {
		return nil, st, err
	}
	return outs[0], st, nil
}

// DecompressBoxes reconstructs several regions in one pass: every class
// stream needed by at least one region is entropy-decoded exactly once,
// which makes many-small-ROI workflows (e.g. halo extraction) far cheaper
// than repeated DecompressBox calls. Every box must lie entirely inside
// the grid — validation is the codec layer's uniform codec.CheckBox, so an
// empty, inverted or out-of-bounds request fails with codec.ErrBox instead
// of being silently clipped. Each result grid has its box's dimensions and
// is bit-identical to the same region of a full decompression.
func (r *Reader[T]) DecompressBoxes(boxes []grid.Box) ([]*grid.Grid[T], *Stats, error) {
	st := &Stats{}
	if len(boxes) == 0 {
		return nil, st, fmt.Errorf("core: no regions requested")
	}
	for i, b := range boxes {
		if err := codec.CheckBox(b, r.hdr.Fz, r.hdr.Fy, r.hdr.Fx); err != nil {
			return nil, st, fmt.Errorf("core: region %d: %w", i, err)
		}
	}
	outs, err := r.reconstruct(r.hdr.Levels, boxes, st)
	return outs, st, err
}

// DecompressSliceZ reconstructs the single z-plane at z — the paper's 2D
// slice random-access case, where entire sub-block streams can be skipped.
func (r *Reader[T]) DecompressSliceZ(z int) (*grid.Grid[T], *Stats, error) {
	if z < 0 || z >= r.hdr.Fz {
		return nil, &Stats{}, fmt.Errorf("core: slice z=%d out of range [0,%d)", z, r.hdr.Fz)
	}
	return r.DecompressBox(grid.Box{Z0: z, Z1: z + 1, Y0: 0, Y1: r.hdr.Fy, X0: 0, X1: r.hdr.Fx})
}
