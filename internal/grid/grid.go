// Package grid provides the dense 1D/2D/3D floating-point grid type that
// every compressor in this repository operates on, together with the
// stride-based parity partition / assembly that underlies STZ's hierarchical
// scheme, and box/slice extraction used by random-access decompression.
//
// Grids are row-major with x fastest: index = (z*Ny + y)*Nx + x. A 2D field
// is a grid with Nz == 1; a 1D array additionally has Ny == 1.
package grid

import (
	"fmt"
	"math"
)

// Float is the element-type constraint for all numeric kernels.
type Float interface {
	~float32 | ~float64
}

// Grid is a dense row-major 3D array.
type Grid[T Float] struct {
	Data       []T
	Nz, Ny, Nx int
}

// New allocates a zero-filled grid of the given dimensions.
func New[T Float](nz, ny, nx int) *Grid[T] {
	if nz < 0 || ny < 0 || nx < 0 {
		panic(fmt.Sprintf("grid: negative dims %d×%d×%d", nz, ny, nx))
	}
	return &Grid[T]{Data: make([]T, nz*ny*nx), Nz: nz, Ny: ny, Nx: nx}
}

// FromData wraps data (without copying) as a grid. It returns an error when
// the element count does not match the dimensions.
func FromData[T Float](data []T, nz, ny, nx int) (*Grid[T], error) {
	if len(data) != nz*ny*nx {
		return nil, fmt.Errorf("grid: %d elements do not fill %d×%d×%d", len(data), nz, ny, nx)
	}
	return &Grid[T]{Data: data, Nz: nz, Ny: ny, Nx: nx}, nil
}

// Idx returns the linear index of (z, y, x).
func (g *Grid[T]) Idx(z, y, x int) int { return (z*g.Ny+y)*g.Nx + x }

// At returns the value at (z, y, x).
func (g *Grid[T]) At(z, y, x int) T { return g.Data[(z*g.Ny+y)*g.Nx+x] }

// Set stores v at (z, y, x).
func (g *Grid[T]) Set(z, y, x int, v T) { g.Data[(z*g.Ny+y)*g.Nx+x] = v }

// Len returns the number of elements.
func (g *Grid[T]) Len() int { return len(g.Data) }

// Dims returns (Nz, Ny, Nx).
func (g *Grid[T]) Dims() (int, int, int) { return g.Nz, g.Ny, g.Nx }

// NDims reports the intrinsic dimensionality (1, 2 or 3).
func (g *Grid[T]) NDims() int {
	switch {
	case g.Nz > 1:
		return 3
	case g.Ny > 1:
		return 2
	default:
		return 1
	}
}

// Clone returns a deep copy.
func (g *Grid[T]) Clone() *Grid[T] {
	out := &Grid[T]{Data: make([]T, len(g.Data)), Nz: g.Nz, Ny: g.Ny, Nx: g.Nx}
	copy(out.Data, g.Data)
	return out
}

// Range returns the minimum and maximum finite values. NaNs are skipped;
// an all-NaN or empty grid returns (0, 0).
func (g *Grid[T]) Range() (min, max T) {
	first := true
	for _, v := range g.Data {
		if math.IsNaN(float64(v)) {
			continue
		}
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// SubDim returns the length of the parity sub-sequence {i : i ≡ offset
// (mod stride)} within [0, n).
func SubDim(n, offset, stride int) int {
	if offset >= n {
		return 0
	}
	return (n - offset + stride - 1) / stride
}

// Offset3 is a parity offset (one of the 8 stride-2 classes in 3D).
type Offset3 struct{ Z, Y, X int }

// Stride2Offsets lists the eight stride-2 parity classes in the canonical
// order used throughout STZ: Z-major binary order, so index i has offsets
// (i>>2&1, i>>1&1, i&1). Class 0 (0,0,0) is the coarse sub-block "a".
var Stride2Offsets = [8]Offset3{
	{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
	{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
}

// ExtractStride extracts the sub-grid of points at positions
// (off.Z + k*stride, off.Y + j*stride, off.X + i*stride).
func (g *Grid[T]) ExtractStride(off Offset3, stride int) *Grid[T] {
	bz := SubDim(g.Nz, off.Z, stride)
	by := SubDim(g.Ny, off.Y, stride)
	bx := SubDim(g.Nx, off.X, stride)
	out := New[T](bz, by, bx)
	di := 0
	for z := off.Z; z < g.Nz; z += stride {
		for y := off.Y; y < g.Ny; y += stride {
			row := (z*g.Ny + y) * g.Nx
			for x := off.X; x < g.Nx; x += stride {
				out.Data[di] = g.Data[row+x]
				di++
			}
		}
	}
	return out
}

// ExtractStrideInto is ExtractStride writing into a caller-provided grid
// (typically backed by a scratch-pool lease) whose dimensions must match
// the extracted sub-grid. Every element of dst is overwritten.
func (g *Grid[T]) ExtractStrideInto(dst *Grid[T], off Offset3, stride int) {
	bz := SubDim(g.Nz, off.Z, stride)
	by := SubDim(g.Ny, off.Y, stride)
	bx := SubDim(g.Nx, off.X, stride)
	if dst.Nz != bz || dst.Ny != by || dst.Nx != bx {
		panic(fmt.Sprintf("grid: ExtractStrideInto dims %d×%d×%d, want %d×%d×%d",
			dst.Nz, dst.Ny, dst.Nx, bz, by, bx))
	}
	di := 0
	for z := off.Z; z < g.Nz; z += stride {
		for y := off.Y; y < g.Ny; y += stride {
			row := (z*g.Ny + y) * g.Nx
			for x := off.X; x < g.Nx; x += stride {
				dst.Data[di] = g.Data[row+x]
				di++
			}
		}
	}
}

// InsertStride writes sub back into g at the parity positions given by
// (off, stride); the inverse of ExtractStride.
func (g *Grid[T]) InsertStride(sub *Grid[T], off Offset3, stride int) {
	si := 0
	for z := off.Z; z < g.Nz; z += stride {
		for y := off.Y; y < g.Ny; y += stride {
			row := (z*g.Ny + y) * g.Nx
			for x := off.X; x < g.Nx; x += stride {
				g.Data[row+x] = sub.Data[si]
				si++
			}
		}
	}
}

// PartitionStride2 splits g into its 8 stride-2 parity sub-blocks in
// Stride2Offsets order. Sub-blocks may be empty when a dimension has
// length 1 (2D/1D inputs).
func PartitionStride2[T Float](g *Grid[T]) [8]*Grid[T] {
	var out [8]*Grid[T]
	for i, off := range Stride2Offsets {
		out[i] = g.ExtractStride(off, 2)
	}
	return out
}

// AssembleStride2 reverses PartitionStride2 into a (nz, ny, nx) grid.
func AssembleStride2[T Float](blocks [8]*Grid[T], nz, ny, nx int) *Grid[T] {
	g := New[T](nz, ny, nx)
	for i, off := range Stride2Offsets {
		if blocks[i] != nil && blocks[i].Len() > 0 {
			g.InsertStride(blocks[i], off, 2)
		}
	}
	return g
}

// Box is a half-open axis-aligned region [Z0,Z1)×[Y0,Y1)×[X0,X1).
type Box struct {
	Z0, Y0, X0 int
	Z1, Y1, X1 int
}

// FullBox covers the whole grid.
func FullBox[T Float](g *Grid[T]) Box {
	return Box{0, 0, 0, g.Nz, g.Ny, g.Nx}
}

// SliceZBox is the box of the single z-plane at z.
func SliceZBox[T Float](g *Grid[T], z int) Box {
	return Box{z, 0, 0, z + 1, g.Ny, g.Nx}
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.Z1 <= b.Z0 || b.Y1 <= b.Y0 || b.X1 <= b.X0 }

// Volume is the number of points in the box (0 if empty).
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	return (b.Z1 - b.Z0) * (b.Y1 - b.Y0) * (b.X1 - b.X0)
}

// Clip intersects b with [0,nz)×[0,ny)×[0,nx).
func (b Box) Clip(nz, ny, nx int) Box {
	c := b
	if c.Z0 < 0 {
		c.Z0 = 0
	}
	if c.Y0 < 0 {
		c.Y0 = 0
	}
	if c.X0 < 0 {
		c.X0 = 0
	}
	if c.Z1 > nz {
		c.Z1 = nz
	}
	if c.Y1 > ny {
		c.Y1 = ny
	}
	if c.X1 > nx {
		c.X1 = nx
	}
	return c
}

// Contains reports whether (z, y, x) lies inside the box.
func (b Box) Contains(z, y, x int) bool {
	return z >= b.Z0 && z < b.Z1 && y >= b.Y0 && y < b.Y1 && x >= b.X0 && x < b.X1
}

// Union returns the smallest box containing both boxes. An empty box acts
// as the identity.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	u := b
	if o.Z0 < u.Z0 {
		u.Z0 = o.Z0
	}
	if o.Y0 < u.Y0 {
		u.Y0 = o.Y0
	}
	if o.X0 < u.X0 {
		u.X0 = o.X0
	}
	if o.Z1 > u.Z1 {
		u.Z1 = o.Z1
	}
	if o.Y1 > u.Y1 {
		u.Y1 = o.Y1
	}
	if o.X1 > u.X1 {
		u.X1 = o.X1
	}
	return u
}

// SubBox maps b (in g's coordinates) to the coordinates of the parity
// sub-block (off, stride): the set of sub-block indices whose original
// position falls inside b. The result is clipped to the sub-block extent.
func SubBox(b Box, off Offset3, stride, nz, ny, nx int) Box {
	ceilDiv := func(lo, o int) int {
		v := lo - o
		if v <= 0 {
			return 0
		}
		return (v + stride - 1) / stride
	}
	s := Box{
		Z0: ceilDiv(b.Z0, off.Z), Y0: ceilDiv(b.Y0, off.Y), X0: ceilDiv(b.X0, off.X),
		Z1: ceilDiv(b.Z1, off.Z), Y1: ceilDiv(b.Y1, off.Y), X1: ceilDiv(b.X1, off.X),
	}
	ext := Box{0, 0, 0, SubDim(nz, off.Z, stride), SubDim(ny, off.Y, stride), SubDim(nx, off.X, stride)}
	return s.Clip(ext.Z1, ext.Y1, ext.X1)
}

// ExtractBox copies the region b (already clipped) into a new grid.
func (g *Grid[T]) ExtractBox(b Box) *Grid[T] {
	b = b.Clip(g.Nz, g.Ny, g.Nx)
	if b.Empty() {
		return New[T](0, 0, 0)
	}
	out := New[T](b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
	di := 0
	for z := b.Z0; z < b.Z1; z++ {
		for y := b.Y0; y < b.Y1; y++ {
			src := (z*g.Ny+y)*g.Nx + b.X0
			copy(out.Data[di:di+b.X1-b.X0], g.Data[src:src+b.X1-b.X0])
			di += b.X1 - b.X0
		}
	}
	return out
}

// CopyBoxFromSlab copies into g (whose dims are b's dims) the part of b
// covered by slab, a z-slab view whose plane 0 is global plane zOff. Rows
// of b outside the slab's z-range are left untouched, which lets a
// chunk-addressed reader assemble a box from exactly the slabs that
// intersect it. b.Y/X must lie within the slab's Y/X extent.
func (g *Grid[T]) CopyBoxFromSlab(slab *Grid[T], b Box, zOff int) {
	z0, z1 := b.Z0, b.Z1
	if z0 < zOff {
		z0 = zOff
	}
	if z1 > zOff+slab.Nz {
		z1 = zOff + slab.Nz
	}
	w := b.X1 - b.X0
	for z := z0; z < z1; z++ {
		for y := b.Y0; y < b.Y1; y++ {
			src := ((z-zOff)*slab.Ny+y)*slab.Nx + b.X0
			dst := ((z-b.Z0)*g.Ny + (y - b.Y0)) * g.Nx
			copy(g.Data[dst:dst+w], slab.Data[src:src+w])
		}
	}
}

// ToFloat64 converts the grid to float64 elements.
func ToFloat64[T Float](g *Grid[T]) *Grid[float64] {
	out := New[float64](g.Nz, g.Ny, g.Nx)
	for i, v := range g.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// ToFloat32 converts the grid to float32 elements.
func ToFloat32[T Float](g *Grid[T]) *Grid[float32] {
	out := New[float32](g.Nz, g.Ny, g.Nx)
	for i, v := range g.Data {
		out.Data[i] = float32(v)
	}
	return out
}
