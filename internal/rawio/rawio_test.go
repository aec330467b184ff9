package rawio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"stz/internal/grid"
)

func TestRoundTrip(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	var buf bytes.Buffer
	w := NewWriter[float32](&buf, 7) // tiny buffer to force chunking
	if err := w.Write(vals); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4*len(vals) {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), 4*len(vals))
	}
	r := NewReader[float32](&buf, 13)
	got := make([]float32, len(vals))
	if err := r.ReadExactly(got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %g != %g", i, got[i], vals[i])
		}
	}
	if n, err := r.Read(got[:1]); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF read: n=%d err=%v", n, err)
	}
}

func TestRoundTripFloat64(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 1e300, -1e-300}
	var buf bytes.Buffer
	if err := NewWriter[float64](&buf, 0).Write(vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(vals))
	if err := NewReader[float64](&buf, 0).ReadExactly(got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %g != %g", i, got[i], vals[i])
		}
	}
}

func TestShortAndRaggedInput(t *testing.T) {
	// 10 bytes = 2.5 float32 values: the ragged tail must error.
	r := NewReader[float32](bytes.NewReader(make([]byte, 10)), 0)
	dst := make([]float32, 4)
	if err := r.ReadExactly(dst); err == nil {
		t.Fatal("ragged input accepted")
	}
	// 8 bytes = 2 whole values, asking for 4: clean short input.
	r2 := NewReader[float32](bytes.NewReader(make([]byte, 8)), 0)
	if err := r2.ReadExactly(dst); err == nil {
		t.Fatal("short input accepted")
	}
	n, err := NewReader[float32](bytes.NewReader(make([]byte, 8)), 0).Read(dst)
	if n != 2 || err != nil {
		t.Fatalf("partial read: n=%d err=%v, want 2 values", n, err)
	}
}

// TestBitExactRoundTrip: PutValues and GetValues move bit patterns, not
// values — NaN payloads, signed zeros and denormals survive unchanged.
func TestBitExactRoundTrip(t *testing.T) {
	bits32 := []uint32{0, 0x80000000, 1, 0x807fffff, 0x7f800000, 0xff800000,
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0x3f800000}
	f32 := make([]float32, len(bits32))
	for i, b := range bits32 {
		f32[i] = math.Float32frombits(b)
	}
	raw := make([]byte, 4*len(f32))
	PutValues(raw, f32)
	back32 := make([]float32, len(f32))
	GetValues(back32, raw)
	for i, b := range bits32 {
		if binary.LittleEndian.Uint32(raw[4*i:]) != b || math.Float32bits(back32[i]) != b {
			t.Fatalf("float32 %#08x: wire %#08x, back %#08x", b, binary.LittleEndian.Uint32(raw[4*i:]), math.Float32bits(back32[i]))
		}
	}

	bits64 := []uint64{0, 1 << 63, 1, 1<<63 | 1<<52 - 1, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8123456789abc, 0x7ff0000000000001, 0x3ff0000000000000}
	f64 := make([]float64, len(bits64))
	for i, b := range bits64 {
		f64[i] = math.Float64frombits(b)
	}
	raw = make([]byte, 8*len(f64))
	PutValues(raw, f64)
	back64 := make([]float64, len(f64))
	GetValues(back64, raw)
	for i, b := range bits64 {
		if binary.LittleEndian.Uint64(raw[8*i:]) != b || math.Float64bits(back64[i]) != b {
			t.Fatalf("float64 %#016x: wire %#016x, back %#016x", b, binary.LittleEndian.Uint64(raw[8*i:]), math.Float64bits(back64[i]))
		}
	}
}

// TestAppendValues: appending values one at a time or all at once leaves
// the prefix alone and writes PutValues's bytes after it.
func TestAppendValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	testAppendValues(t, []float32{1.5, float32(negZero), float32(math.Inf(1)), 3e-42})
	testAppendValues(t, []float64{1.5, negZero, math.Inf(-1), 5e-320})
}

func testAppendValues[T grid.Float](t *testing.T, vals []T) {
	prefix := []byte{0xde, 0xad}
	want := append(bytes.Clone(prefix), make([]byte, len(vals)*ElemSize[T]())...)
	PutValues(want[len(prefix):], vals)
	whole := AppendValues(bytes.Clone(prefix), vals...)
	one := bytes.Clone(prefix)
	for _, v := range vals {
		one = AppendValues(one, v)
	}
	if !bytes.Equal(whole, want) || !bytes.Equal(one, want) {
		t.Fatalf("%T: whole %x, one at a time %x, want %x", vals, whole, one, want)
	}
}
