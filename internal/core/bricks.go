package core

import "stz/internal/grid"

// A v4 class stream is tiled into bricks of the class grid, brickZ×brickY×
// brickX class points (z×y×x; the last brick along an axis is clipped to the
// grid), and codes each brick as one lane of the class's Huffman code. The
// shape is part of the format: a box decodes the lanes of the bricks it
// touches and no others.
const (
	brickZ, brickY, brickX = 8, 16, 32
	brickLen               = brickZ * brickY * brickX
)

// bricks is the brick tiling of one class grid of dims d: n bricks along
// each axis, numbered z-major (brick order).
type bricks struct {
	d, n [3]int
}

func newBricks(d [3]int) bricks {
	return bricks{d: d, n: [3]int{ceilDiv(d[0], brickZ), ceilDiv(d[1], brickY), ceilDiv(d[2], brickX)}}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// count is the number of bricks.
func (bs bricks) count() int { return bs.n[0] * bs.n[1] * bs.n[2] }

// slab is the number of bricks in one brick z-slab.
func (bs bricks) slab() int { return bs.n[1] * bs.n[2] }

// box is brick b's region of the class grid.
func (bs bricks) box(b int) grid.Box {
	bz, by, bx := b/bs.slab(), b/bs.n[2]%bs.n[1], b%bs.n[2]
	return grid.Box{
		Z0: bz * brickZ, Z1: min((bz+1)*brickZ, bs.d[0]),
		Y0: by * brickY, Y1: min((by+1)*brickY, bs.d[1]),
		X0: bx * brickX, X1: min((bx+1)*brickX, bs.d[2]),
	}
}

// mark sets marked[b] for every brick b the class box sb touches.
func (bs bricks) mark(sb grid.Box, marked []bool) {
	if sb.Empty() {
		return
	}
	for bz := sb.Z0 / brickZ; bz <= (sb.Z1-1)/brickZ; bz++ {
		for by := sb.Y0 / brickY; by <= (sb.Y1-1)/brickY; by++ {
			for bx := sb.X0 / brickX; bx <= (sb.X1-1)/brickX; bx++ {
				marked[(bz*bs.n[1]+by)*bs.n[2]+bx] = true
			}
		}
	}
}
