package sz3

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// A version-3 serial stream codes each interpolation level's codes as one
// Huffman lane per brick of the level's lattice: brickZ×brickY×brickX
// points of the half-stride-h lattice, 8h×16h×32h grid cells (z×y×x; the
// last brick along an axis is clipped to the grid), the core's v4 brick
// scaled to the level. Inside a lane the codes keep traversal order. The
// shape is part of the format: a box decodes the lanes that hold a code of
// its cone and no others.
const (
	brickZBits, brickYBits, brickXBits = 3, 4, 5
	brickZ, brickY, brickX             = 1 << brickZBits, 1 << brickYBits, 1 << brickXBits
	// brickCols is the number of a line's points in one brick: a brick is
	// 32h grid cells wide and every line steps 2h.
	brickCols = brickX / 2
)

// level is one interpolation level's brick tiling: half-stride h = 1<<lg,
// n bricks along z, y and x, numbered z-major; their lanes are the
// stream's lanes first, first+1, …. The lattice counts of a brick's
// extent that the passes' code counts multiply are kept for a full brick
// ([0]) and for the last along each axis ([1], which the grid may clip):
// along z the points ≡ h (mod 2h) and those ≡ 0 (mod h), along y those ≡ 0
// and ≡ h (mod 2h) and ≡ 0 (mod h), along x those ≡ 0 and ≡ h (mod 2h).
type level struct {
	h, lg int
	n     [3]int
	first int
	zc    [2][2]int
	yc    [2][3]int
	xc    [2][2]int
}

// tiling is the brick tiling of every level of an nz×ny×nx grid in
// traversal order, coarse to fine: pass p of forEachLine is level p/3's.
type tiling struct {
	lv     [maxPasses / 3]level
	levels int
	lanes  int
}

func newTiling(nz, ny, nx int) tiling {
	var t tiling
	if max(nz, ny, nx) <= 1 {
		return t
	}
	for s := startStride(max(nz, ny, nx)); s >= 2; s >>= 1 {
		lg := bits.TrailingZeros(uint(s)) - 1
		lv := &t.lv[t.levels]
		h := s / 2
		*lv = level{h: h, lg: lg, first: t.lanes, n: [3]int{
			grid.SubDim(nz, 0, brickZ<<lg), grid.SubDim(ny, 0, brickY<<lg), grid.SubDim(nx, 0, brickX<<lg)}}
		for last := 0; last < 2; last++ {
			dz, dy, dx := brickZ<<lg, brickY<<lg, brickX<<lg
			if last == 1 {
				dz, dy, dx = nz-(lv.n[0]-1)*dz, ny-(lv.n[1]-1)*dy, nx-(lv.n[2]-1)*dx
			}
			lv.zc[last] = [2]int{span(dz, h, lg+1), span(dz, 0, lg)}
			lv.yc[last] = [3]int{span(dy, 0, lg+1), span(dy, h, lg+1), span(dy, 0, lg)}
			lv.xc[last] = [2]int{span(dx, 0, lg+1), span(dx, h, lg+1)}
		}
		t.lanes += lv.n[0] * lv.n[1] * lv.n[2]
		t.levels++
	}
	return t
}

// span counts the i ≡ off (mod 1<<lg) in [0, n): grid.SubDim for a
// power-of-two stride.
func span(n, off, lg int) int {
	if off >= n {
		return 0
	}
	return (n - off + 1<<lg - 1) >> lg
}

// laneCodes returns every lane's code count, in lane order: per pass, the
// product of its lattice counts along z, y and x (forEachLine's lattices:
// the z pass holds z ≡ h, y ≡ x ≡ 0 (mod 2h); the y pass z ≡ 0 (mod h),
// y ≡ h, x ≡ 0 (mod 2h); the x pass z ≡ y ≡ 0 (mod h), x ≡ h (mod 2h), a
// brick's origin being a multiple of 2h along every axis).
func (t *tiling) laneCodes() []int {
	counts := make([]int, t.lanes)
	for i := 0; i < t.levels; i++ {
		lv := &t.lv[i]
		l := lv.first
		for bz := 0; bz < lv.n[0]; bz++ {
			zc := &lv.zc[isLast(bz, lv.n[0])]
			for by := 0; by < lv.n[1]; by++ {
				yc := &lv.yc[isLast(by, lv.n[1])]
				for bx := 0; bx < lv.n[2]; bx++ {
					xc := &lv.xc[isLast(bx, lv.n[2])]
					counts[l] = zc[0]*yc[0]*xc[0] + zc[1]*yc[1]*xc[0] + zc[1]*yc[2]*xc[1]
					l++
				}
			}
		}
	}
	return counts
}

// isLast is 1 for the last of n bricks along an axis, else 0.
func isLast(b, n int) int {
	if b == n-1 {
		return 1
	}
	return 0
}

// lane is the lane of the brick that holds the first brick column of the
// line of pass p at (z, y); the lanes of its other columns follow it.
func (t *tiling) lane(p, z, y int) int {
	lv := &t.lv[p/3]
	return lv.first + (z>>(lv.lg+brickZBits)*lv.n[1]+y>>(lv.lg+brickYBits))*lv.n[2]
}

// row locates the codes of line ln: the lane of the brick that holds its
// first brick column, and where in a brick's lane the line's first point
// in that brick sits — at off in a full-width brick, at offLast in the
// level's last brick column, which the grid may clip. The line's points
// brickCols·c … brickCols·c+brickCols−1 are brick column c's, and the
// lanes of a brick row are consecutive.
//
// In a brick the passes' rows (laneCodes' z and y factors) are the same
// whatever its width; only their widths, xe even and xo odd x points,
// change. So a row sits at k·xe + r·xo: the z-pass and y-pass rows before
// it (k, all xe wide) and, in the x pass, its own x-pass rows before it
// (r, xo wide).
func (t *tiling) row(ln *line) (lane, off, offLast int) {
	lv := &t.lv[ln.pass/3]
	lg, h := lv.lg, lv.h
	bz, by := ln.z>>(lg+brickZBits), ln.y>>(lg+brickYBits)
	zc, yc := &lv.zc[isLast(bz, lv.n[0])], &lv.yc[isLast(by, lv.n[1])]
	z, y := ln.z-bz<<(lg+brickZBits), ln.y-by<<(lg+brickYBits)
	var k, r int
	switch ln.pass % 3 {
	case 0:
		k = (z-h)>>(lg+1)*yc[0] + y>>(lg+1)
	case 1:
		k = zc[0]*yc[0] + z>>lg*yc[1] + (y-h)>>(lg+1)
	default:
		k = zc[0]*yc[0] + zc[1]*yc[1]
		r = z>>lg*yc[2] + y>>lg
	}
	return t.lane(ln.pass, ln.z, ln.y), (k + r) * brickCols, k*lv.xc[1][0] + r*lv.xc[1][1]
}

// mark sets touched[l] for every lane l that holds a code the cone reads:
// a brick holding a point of one of its level's passes inside that pass's
// need-box. Each need-box is first shrunk, axis by axis, to the pass's
// lattice (laneCodes), so a brick it only grazes between two of the pass's
// points stays untouched.
func (t *tiling) mark(needs *[maxPasses]grid.Box, touched []bool) {
	for i := 0; i < t.levels; i++ {
		lv := &t.lv[i]
		h, s := lv.h, 2*lv.h
		for p, lat := range [3][3][2]int{{{h, s}, {0, s}, {0, s}}, {{0, h}, {h, s}, {0, s}}, {{0, h}, {0, h}, {h, s}}} {
			b := needs[3*i+p]
			z0, z1 := snap(b.Z0, b.Z1, lat[0][0], lat[0][1])
			y0, y1 := snap(b.Y0, b.Y1, lat[1][0], lat[1][1])
			x0, x1 := snap(b.X0, b.X1, lat[2][0], lat[2][1])
			if z0 >= z1 || y0 >= y1 || x0 >= x1 {
				continue
			}
			for bz := z0 >> (lv.lg + brickZBits); bz <= (z1-1)>>(lv.lg+brickZBits); bz++ {
				for by := y0 >> (lv.lg + brickYBits); by <= (y1-1)>>(lv.lg+brickYBits); by++ {
					l := lv.first + (bz*lv.n[1]+by)*lv.n[2]
					for bx := x0 >> (lv.lg + brickXBits); bx <= (x1-1)>>(lv.lg+brickXBits); bx++ {
						touched[l+bx] = true
					}
				}
			}
		}
	}
}

// snap shrinks [lo, hi) to the span of its coordinates ≡ off (mod s), s a
// power of two: from the first of them to one past the last, or an empty
// span when there are none.
func snap(lo, hi, off, s int) (int, int) {
	first, last := ceilTo(lo, off, s), hi-1-(hi-1-off)&(s-1)
	return first, max(first, last+1)
}

// laneDecode is the entropy-decode of a stream for one box: the codes of
// the lanes that hold a code of its cone (every lane, for a v1 or v2
// stream), lane after lane, and where each lane starts among them.
type laneDecode[T grid.Float] struct {
	codes []uint16 // leased; the touched lanes' codes, lane after lane
	// at[l] is the offset in codes of lane l's first code, for a touched
	// lane; an untouched lane's entry is never read.
	at []int
	// escAt holds the index in codes of every escape of the touched lanes,
	// ascending, and escVal its value.
	escAt   []int
	escVal  []T
	decoded int // symbols the entropy decoder produced
}

func (ld *laneDecode[T]) release() {
	scratch.U16.Release(ld.codes)
	ld.codes = nil
}

// escape returns the value of the escape at index i of codes; ok is false
// when no escape is there: a zero code in a stream without escapes, whose
// lanes the decode does not scan.
func (ld *laneDecode[T]) escape(i int) (v T, ok bool) {
	j, ok := slices.BinarySearch(ld.escAt, i)
	if !ok {
		return 0, false
	}
	return ld.escVal[j], true
}

// decodeLanes decodes the v3 code section sec into sd.lanes, for sd's
// cone: a laned section (huffman.OpenSection) whose escape values are the
// outlier section's, in lane order. The touched lanes decode lane after
// lane into one buffer, their pairs handed to workers when laneWorkers > 1
// and the decode is large enough to pay for the handoff.
func (sd *serialDecode[T]) decodeLanes(sec []byte, laneWorkers int) error {
	tl, elem := &sd.tl, rawio.ElemSize[T]()
	counts := tl.laneCodes()
	ls, err := huffman.OpenSection(sec, sd.q.Alphabet(), counts, len(sd.outliers)/elem, 0)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrFormat, err)
	}
	defer ls.Release()
	marked := make([]bool, tl.lanes)
	tl.mark(&sd.needs, marked)
	ld := &sd.lanes
	ld.at = make([]int, tl.lanes)
	touched, slots := make([]int32, 0, tl.lanes), 0
	for l, m := range marked {
		if m {
			touched = append(touched, int32(l))
			ld.at[l] = ld.decoded
			ld.decoded += counts[l]
			slots += ls.Escapes(l)
		}
	}
	ld.codes = scratch.U16.Lease(ld.decoded)
	ld.escAt, ld.escVal = make([]int, slots), make([]T, slots)
	workers := min(laneWorkers, runtime.GOMAXPROCS(0))
	if ld.decoded < laneParallelMin {
		workers = 1
	}
	err = ls.Decode(touched, ld.codes, workers, func(lc huffman.LaneCodes) {
		rawio.GetValues(ld.escVal[lc.Slot:][:lc.Escs], sd.outliers[lc.Esc*elem:])
		at := ld.at[lc.Lane]
		for i, e := 0, 0; e < lc.Escs; i++ {
			if lc.Codes[i] == 0 {
				ld.escAt[lc.Slot+e] = at + i
				e++
			}
		}
	})
	if err != nil {
		ld.release()
		return fmt.Errorf("%w: %w", ErrFormat, err)
	}
	return nil
}

// decodeLegacy decodes the v1 or v2 code section sec into sd.lanes whole:
// one Huffman stream of every code in traversal order, single-lane (v1) or
// four-lane (huffman.EncodeLanes, v2), whose escape values are the outlier
// section's in the same order. The codes are dealt into the v3 lanes with
// the writer's lane map, one cursor a lane, and each escape value goes to
// its code's index there, so reconstruct reads every version alike.
func (sd *serialDecode[T]) decodeLegacy(sec []byte, version, laneWorkers int) error {
	tl, ld, elem := &sd.tl, &sd.lanes, rawio.ElemSize[T]()
	ld.at = make([]int, tl.lanes)
	for l, n := range tl.laneCodes() {
		ld.at[l] = ld.decoded
		ld.decoded += n
	}
	// The code count is the predicted-point count: with a lease of it the
	// decoder skips its output allocation.
	buf := scratch.U16.Lease(ld.decoded)
	defer scratch.U16.Release(buf)
	var codes []uint16
	var err error
	if version == 2 {
		codes, err = huffman.DecodeLanesInto(buf[:0], sec, sd.q.Alphabet(), laneWorkers)
	} else {
		codes, err = huffman.DecodeInto(buf[:0], sec, sd.q.Alphabet())
	}
	if err != nil {
		return fmt.Errorf("sz3: %w", err)
	}
	if len(codes) != ld.decoded {
		return fmt.Errorf("%w: %d codes for %d predicted points", ErrFormat, len(codes), ld.decoded)
	}
	ld.codes = scratch.U16.Lease(ld.decoded)
	cur := slices.Clone(ld.at)
	var pos []int // each escape's index in ld.codes, in traversal order
	ci := 0
	forEachLine(sd.nz, sd.ny, sd.nx, nil, func(ln *line) {
		for l, t := tl.lane(ln.pass, ln.z, ln.y), 0; t < ln.n; l, t = l+1, t+brickCols {
			lc := codes[ci+t:][:min(brickCols, ln.n-t)]
			for k, code := range lc {
				if code == 0 {
					pos = append(pos, cur[l]+k)
				}
			}
			cur[l] += copy(ld.codes[cur[l]:], lc)
		}
		ci += ln.n
	})
	if nOut := len(sd.outliers) / elem; len(pos) != nOut {
		ld.release()
		return fmt.Errorf("%w: %w: %d escapes for %d outliers", ErrFormat, huffman.ErrEscapeCount, len(pos), nOut)
	}
	// The escapes in lane order: escAt ascending, as escape searches it.
	order := make([]int, len(pos))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return pos[a] - pos[b] })
	ld.escAt, ld.escVal = make([]int, len(pos)), make([]T, len(pos))
	for j, i := range order {
		ld.escAt[j] = pos[i]
		ld.escVal[j] = rawio.GetValue[T](sd.outliers[i*elem:])
	}
	return nil
}

// laneParallelMin is the decode size, in symbols, from which the lane
// pairs are handed to workers: below it the goroutine handoff costs more
// than it saves.
const laneParallelMin = 1 << 16
