package core

import (
	"stz/internal/grid"
)

// predictPoint predicts the value of a parity-class point from the
// reconstructed coarse grid (the class-0 lattice of the same fine grid).
//
// The class point at class coordinates (k, j, i) with parity offset off
// sits at fine coordinates (2k+off.Z, 2j+off.Y, 2i+off.X). Along each axis
// with offset 1 it lies halfway between coarse lattice indices (k, k+1);
// along offset-0 axes it coincides with coarse index k.
//
// Kernel selection follows the paper's ladder with boundary fallbacks:
//
//	cubic (Eqs. 6–8)  — needs inner corners {0,+1} and outer corners
//	                    {−1,+2} along every offset axis;
//	linear (Eqs. 3–5) — needs inner corners only;
//	partial           — mean of the in-range inner corners;
//	direct (Eq. 1)    — the base corner (always in range).
func predictPoint[T grid.Float](c *grid.Grid[T], off grid.Offset3, k, j, i int, kind Predictor) T {
	if kind == PredDirect {
		return c.Data[(k*c.Ny+j)*c.Nx+i]
	}
	// Offset mask per axis.
	dz, dy, dx := off.Z, off.Y, off.X
	nOff := dz + dy + dx // number of offset axes, 1..3

	// Upper inner corner availability.
	zOK := dz == 0 || k+1 < c.Nz
	yOK := dy == 0 || j+1 < c.Ny
	xOK := dx == 0 || i+1 < c.Nx

	base := (k*c.Ny+j)*c.Nx + i
	rowZ := c.Ny * c.Nx
	rowY := c.Nx

	if zOK && yOK && xOK {
		// All inner corners exist. Try cubic, else linear.
		if kind == PredCubic {
			zC := dz == 0 || (k-1 >= 0 && k+2 < c.Nz)
			yC := dy == 0 || (j-1 >= 0 && j+2 < c.Ny)
			xC := dx == 0 || (i-1 >= 0 && i+2 < c.Nx)
			if zC && yC && xC {
				var sumIn, sumOut T
				for bz := 0; bz <= dz; bz++ {
					for by := 0; by <= dy; by++ {
						for bx := 0; bx <= dx; bx++ {
							sumIn += c.Data[base+bz*rowZ+by*rowY+bx]
						}
					}
				}
				// Outer corners: −1/+2 along offset axes only.
				zSteps, zn := outerSteps(dz)
				ySteps, yn := outerSteps(dy)
				xSteps, xn := outerSteps(dx)
				for a := 0; a < zn; a++ {
					for b := 0; b < yn; b++ {
						for e := 0; e < xn; e++ {
							sumOut += c.Data[base+zSteps[a]*rowZ+ySteps[b]*rowY+xSteps[e]]
						}
					}
				}
				// Coefficients 9/2^(n+3) and −1/2^(n+3), n = #offset axes.
				den := T(int64(1) << uint(nOff+3))
				return sumIn*9/den - sumOut/den
			}
		}
		// Linear: mean of the 2^n inner corners (Eqs. 3–5).
		var sum T
		for bz := 0; bz <= dz; bz++ {
			for by := 0; by <= dy; by++ {
				for bx := 0; bx <= dx; bx++ {
					sum += c.Data[base+bz*rowZ+by*rowY+bx]
				}
			}
		}
		return sum / T(int64(1)<<uint(nOff))
	}

	// Partial boundary: mean of the in-range inner corners.
	var sum T
	var cnt int
	for bz := 0; bz <= dz; bz++ {
		if bz == 1 && !zOK {
			continue
		}
		for by := 0; by <= dy; by++ {
			if by == 1 && !yOK {
				continue
			}
			for bx := 0; bx <= dx; bx++ {
				if bx == 1 && !xOK {
					continue
				}
				sum += c.Data[base+bz*rowZ+by*rowY+bx]
				cnt++
			}
		}
	}
	return sum / T(cnt)
}

// outerSteps returns the outer-corner index offsets along one axis:
// {0} for a non-offset axis, {−1, +2} for an offset axis.
func outerSteps(d int) ([2]int, int) {
	if d == 0 {
		return [2]int{0, 0}, 1
	}
	return [2]int{-1, 2}, 2
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
