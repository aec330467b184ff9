package rawio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"stz/internal/grid"
)

func TestRoundTrip(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	var buf bytes.Buffer
	w := NewWriter[float32](&buf)
	// Pieces of every size, down to none, append.
	for _, piece := range [][]float32{vals[:0], vals[:7], vals[7:500], vals[500:]} {
		if err := w.Write(piece); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 4*len(vals) {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), 4*len(vals))
	}
	r := NewReader[float32](&buf)
	got := make([]float32, len(vals))
	if err := r.ReadExactly(got[:13]); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadExactly(got[13:]); err != nil {
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
	if err := NewWriter[float64](&buf).Write(vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(vals))
	if err := NewReader[float64](&buf).ReadExactly(got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %g != %g", i, got[i], vals[i])
		}
	}
}

var errBoom = errors.New("boom")

// TestShortAndRaggedInput reads 10-, 8- and 6-byte bodies into four float32
// slots through readers that hand the bytes over whole, one at a time, half
// a request at a time, with the end reported beside the last bytes, and
// followed by a read error: whatever the reader, the whole values arrive,
// a body that ends inside a value is io.ErrUnexpectedEOF, and a read error
// comes back as it is.
func TestShortAndRaggedInput(t *testing.T) {
	wrap := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	body := make([]byte, 10)
	for i := range body {
		body[i] = byte(i + 1)
	}
	for name, wr := range wrap {
		for _, tc := range []struct {
			bytes, n int
			err      error
		}{
			{10, 2, io.ErrUnexpectedEOF}, // 2.5 values: a ragged tail
			{8, 2, nil},                  // 2 whole values, 4 asked for
			{6, 1, io.ErrUnexpectedEOF},
			{0, 0, io.EOF},
		} {
			src := body[:tc.bytes]
			dst := make([]float32, 4)
			n, err := NewReader[float32](wr(bytes.NewReader(src))).Read(dst)
			if n != tc.n || err != tc.err {
				t.Fatalf("%s, %d bytes: Read = %d, %v; want %d, %v", name, tc.bytes, n, err, tc.n, tc.err)
			}
			want := make([]float32, tc.n)
			GetValues(want, src)
			if !sameBits(dst[:n], want) {
				t.Fatalf("%s, %d bytes: read %v, want %v", name, tc.bytes, dst[:n], want)
			}
			if err := NewReader[float32](wr(bytes.NewReader(src))).ReadExactly(dst); err == nil {
				t.Fatalf("%s, %d bytes: short input accepted", name, tc.bytes)
			}
			// The same bytes, then a read error: it is reported after the
			// whole values, ends inside one or not.
			r := io.MultiReader(wr(bytes.NewReader(src)), iotest.ErrReader(errBoom))
			if n, err := NewReader[float32](r).Read(dst); n != tc.n || err != errBoom {
				t.Fatalf("%s, %d bytes then an error: Read = %d, %v; want %d, %v", name, tc.bytes, n, err, tc.n, errBoom)
			}
		}
	}
	// A zero-length destination reads nothing, even from a failing reader.
	for _, r := range []io.Reader{bytes.NewReader(body), iotest.ErrReader(errBoom), bytes.NewReader(nil)} {
		vr := NewReader[float64](r)
		if n, err := vr.Read(nil); n != 0 || err != nil {
			t.Fatalf("empty Read = %d, %v", n, err)
		}
		if err := vr.ReadExactly([]float64{}); err != nil {
			t.Fatalf("empty ReadExactly: %v", err)
		}
	}
}

// TestBigEndianConversion runs the big-endian host's paths on this host:
// a Reader converting in place leaves in each slot the wire value's bytes
// most significant first, which is that value's memory on a big-endian
// host, and a Writer encoding through its buffer writes the wire form.
func TestBigEndianConversion(t *testing.T) {
	testBigEndian(t, []float32{1.5, float32(math.Copysign(0, -1)), float32(math.Inf(1)), 3e-42, float32(math.NaN())})
	testBigEndian(t, []float64{1.5, math.Copysign(0, -1), math.Inf(-1), 5e-320, math.NaN()})
}

func testBigEndian[T grid.Float](t *testing.T, vals []T) {
	elem := ElemSize[T]()
	wire := make([]byte, len(vals)*elem)
	PutValues(wire, vals)
	native := make([]byte, len(wire)) // the values' big-endian memory
	for i := range vals {
		if elem == 4 {
			binary.BigEndian.PutUint32(native[4*i:], binary.LittleEndian.Uint32(wire[4*i:]))
		} else {
			binary.BigEndian.PutUint64(native[8*i:], binary.LittleEndian.Uint64(wire[8*i:]))
		}
	}
	got := make([]T, len(vals))
	r := &Reader[T]{r: iotest.HalfReader(bytes.NewReader(wire)), swap: true}
	if err := r.ReadExactly(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asBytes(got), native) {
		t.Fatalf("%T: converted % x, want % x", vals, asBytes(got), native)
	}
	// A write larger than the buffer goes in pieces and leaves src alone.
	many := slices.Repeat(vals, swapBufBytes/elem/len(vals)+3)
	before := slices.Clone(asBytes(many))
	var out bytes.Buffer
	w := &Writer[T]{w: &out, swap: true}
	if err := w.Write(vals[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(many); err != nil {
		t.Fatal(err)
	}
	want := AppendValues(AppendValues(nil, vals[0]), many...)
	if !bytes.Equal(out.Bytes(), want) || !bytes.Equal(asBytes(many), before) {
		t.Fatalf("%T: the big-endian writer's bytes differ from the wire form, or it changed src", vals)
	}
}

// sameBits compares bit patterns, so NaNs compare equal to themselves.
func sameBits[T grid.Float](a, b []T) bool {
	return len(a) == len(b) && bytes.Equal(asBytes(a), asBytes(b))
}

// FuzzRawioReader reads arbitrary bytes, handed over piece by piece as the
// fuzzer chooses, into a destination of arbitrary length, and holds Read
// and ReadExactly to GetValues over the same bytes: the whole values, the
// error for a short or ragged body, and nothing read past the destination.
func FuzzRawioReader(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), false)
	f.Add(make([]byte, 10), uint16(4), uint8(1), false)
	f.Add(make([]byte, 24), uint16(3), uint8(5), true)
	f.Add(make([]byte, 23), uint16(3), uint8(0), true)
	f.Add(make([]byte, 64), uint16(9), uint8(255), false)
	f.Fuzz(func(t *testing.T, data []byte, dstLen uint16, piece uint8, f64 bool) {
		if f64 {
			fuzzRawioReader[float64](t, data, int(dstLen%2048), int(piece))
		} else {
			fuzzRawioReader[float32](t, data, int(dstLen%2048), int(piece))
		}
	})
}

// pieceReader hands over at most n+1 bytes a call.
type pieceReader struct {
	r io.Reader
	n int
}

func (p *pieceReader) Read(b []byte) (int, error) {
	return p.r.Read(b[:min(len(b), p.n+1)])
}

func fuzzRawioReader[T grid.Float](t *testing.T, data []byte, dstLen, piece int) {
	elem := ElemSize[T]()
	whole := min(len(data)/elem, dstLen)
	want := make([]T, whole)
	GetValues(want, data)
	var wantErr error
	switch {
	case dstLen == 0 || len(data) >= dstLen*elem:
	case len(data)%elem != 0:
		wantErr = io.ErrUnexpectedEOF
	case len(data) == 0:
		wantErr = io.EOF
	}
	src := bytes.NewReader(data)
	dst := make([]T, dstLen)
	n, err := NewReader[T](&pieceReader{src, piece}).Read(dst)
	if n != whole || err != wantErr {
		t.Fatalf("Read = %d, %v; want %d, %v", n, err, whole, wantErr)
	}
	if !sameBits(dst[:n], want) {
		t.Fatal("values differ from GetValues over the same bytes")
	}
	if rest := len(data) - src.Len(); rest > dstLen*elem {
		t.Fatalf("read %d bytes into %d values", rest, dstLen)
	}
	err = NewReader[T](&pieceReader{bytes.NewReader(data), piece}).ReadExactly(dst)
	if (err == nil) != (len(data) >= dstLen*elem) {
		t.Fatalf("ReadExactly of %d values from %d bytes: %v", dstLen, len(data), err)
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
