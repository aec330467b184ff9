package sz3

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// cubicSpecials are operands a cubic run must carry through with the Go
// loop's exact bits: NaNs of both signs and of other payloads (quiet and
// signalling), ±Inf, −0, subnormals, and values whose ·9 overflows.
var cubicSpecials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffd0beef, 0x7f800001, // NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x80000000,                         // −0
	0x00000001, 0x80000003, 0x007fffff, // subnormals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
}

// cubicRows fills data with normals strewn with cubicSpecials (one operand
// in four).
func cubicRows(rng *rand.Rand, data []float32) {
	for i := range data {
		data[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			data[i] = math.Float32frombits(cubicSpecials[rng.Intn(len(cubicSpecials))])
		}
	}
}

// checkCubicRow runs cubicRow at stride 2 over the run of m points whose
// operand rows start at data[0], data[2·step], data[4·step] and
// data[6·step], as predictLine lays them out, and holds it to cubicRowGo
// bit for bit, NaN payloads included; the point after the run must stay
// untouched.
func checkCubicRow(t *testing.T, data []float32, step, m int) {
	t.Helper()
	p0, p1, p2, p3 := data, data[2*step:], data[4*step:], data[6*step:]
	got, want := make([]float32, m+1), make([]float32, m+1)
	got[m], want[m] = -7.25, -7.25
	cubicRow(p0, p1, p2, p3, 2, got[:m])
	cubicRowGo(p0, p1, p2, p3, 2, want[:m])
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("step %d, %d points: point %d bits %#x, Go loop %#x (operands %#x %#x %#x %#x)",
				step, m, i, g, w,
				math.Float32bits(p0[2*i]), math.Float32bits(p1[2*i]), math.Float32bits(p2[2*i]), math.Float32bits(p3[2*i]))
		}
	}
}

// TestCubicRow2Kernel holds cubicRow, which sends float32 stride-2 runs of
// eight points or more through the AVX2 kernel where the CPU has one, to
// the Go loop cubicRowGo bit for bit: run lengths 0–70, so every group tail
// 0–7 after one to eight whole groups; the operand rows of an x-line
// (step 1, the four rows interleaved) and of a z or y line (rows far
// apart); rows whose last operand is the slice's last element, and rows
// with slack after it.
func TestCubicRow2Kernel(t *testing.T) {
	if !hasCubicKernel {
		t.Log("no AVX2 on this CPU: cubicRow runs the Go loop only")
	}
	rng := rand.New(rand.NewSource(49))
	for _, step := range []int{1, 3, 37} {
		for m := 0; m <= 70; m++ {
			for _, slack := range []int{0, 1, 16} {
				// The last operand is p3[2(m−1)] = data[6·step+2m−2].
				data := make([]float32, 6*step+max(2*m-1, 0)+slack)
				for rep := 0; rep < 4; rep++ {
					cubicRows(rng, data)
					checkCubicRow(t, data, step, m)
				}
			}
		}
	}
}

// FuzzCubicRow2 holds cubicRow at stride 2 to cubicRowGo bit for bit on
// operands of arbitrary bits: the fuzzer's bytes are the rows' floats, four
// little-endian bytes each, step spaces the rows apart and m caps the run,
// which otherwise takes every point the rows hold.
func FuzzCubicRow2(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 21, 29, 40, 70} {
		data := make([]float32, n)
		cubicRows(rng, data)
		b := make([]byte, 4*n)
		for i, v := range data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(b, uint8(1), uint8(255))
		f.Add(b, uint8(2), uint8(9))
	}
	f.Fuzz(func(t *testing.T, b []byte, step, m uint8) {
		s := int(step%8) + 1
		data := make([]float32, len(b)/4)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		if len(data) < 6*s+1 {
			return
		}
		checkCubicRow(t, data, s, min(int(m), (len(data)-6*s+1)/2))
	})
}

// TestCubicRow2ShortRowPanics holds cubicRow to a panic when one operand
// row is a float shorter than the run reads, even with capacity to spare
// after it: the kernel must not read past a row's length where the Go loop
// would have panicked.
func TestCubicRow2ShortRowPanics(t *testing.T) {
	for _, m := range []int{8, 13, 32} {
		for r := 0; r < 4; r++ {
			rows := [4][]float32{}
			for k := range rows {
				rows[k] = make([]float32, 2*m-1, 2*m+32)
			}
			rows[r] = rows[r][:2*m-2]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d points, row %d of length %d (capacity %d): no panic", m, r, len(rows[r]), cap(rows[r]))
					}
				}()
				cubicRow(rows[0], rows[1], rows[2], rows[3], 2, make([]float32, m))
			}()
		}
	}
}
