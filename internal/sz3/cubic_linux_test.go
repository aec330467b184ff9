package sz3

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last one is the last before an
// unreadable page, so a kernel load past the slice faults the test.
func guarded(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-4*n])), n)
}

// TestCubicRow2NoReadPastRows runs cubicRow on operand rows that end on
// their last operand right before an unreadable page: every run length
// 8–40 (each group tail) for an x-line's rows and for rows far apart. A
// load past the last operand — the 16th float of a last group's last
// row — faults.
func TestCubicRow2NoReadPastRows(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(3))
	for _, step := range []int{1, 37} {
		for m := 8; m <= 40; m++ {
			data := guarded(t, 6*step+2*m-1)
			cubicRows(rng, data)
			checkCubicRow(t, data, step, m)
		}
	}
}

// TestPredictLineNoReadPastGrid predicts every line of float32 grids with
// odd dims whose last point is right before an unreadable page. In each,
// the finest level's last z, y and x runs read the grid's last point as
// their last operand, p3 of their last group; a kernel load past it would
// fault. The predictions must match predictAxis point by point.
func TestPredictLineNoReadPastGrid(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{9, 9, 37}, {5, 7, 19}, {3, 3, 33}} {
		nz, ny, nx := dims[0], dims[1], dims[2]
		data := guarded(t, nz*ny*nx)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		preds := make([]float32, (nx+1)/2)
		forEachLine(nz, ny, nx, nil, func(ln *line) {
			predictLine(data, ln, preds[:ln.n])
			for i, p := range preds[:ln.n] {
				want := predictAxis(data, ln.idx+i*ln.stride, ln.step, ln.c+i*ln.dc, ln.h, ln.axisLen)
				if math.Float32bits(p) != math.Float32bits(want) {
					t.Fatalf("dims %v, pass %d: point %d of the line at %d predicts %v, predictAxis %v",
						dims, ln.pass, i, ln.idx, p, want)
				}
			}
		})
	}
}
