package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(0)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xff, 0)
	w.WriteBits(1, 1)
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(1)
	if err != nil || v != 1 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestWriteBitsFullWord(t *testing.T) {
	w := NewWriter(0)
	const v = uint64(0xdeadbeefcafebabe)
	w.WriteBits(v, 64)
	w.WriteBits(0x3, 2)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %#x want %#x", got, v)
	}
	got2, err := r.ReadBits(2)
	if err != nil || got2 != 3 {
		t.Fatalf("got %d, %v", got2, err)
	}
}

func TestWriteBitsStraddleWordBoundary(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x1, 60)   // leaves 4 free bits in acc
	w.WriteBits(0xabc, 12) // straddles
	r := NewReader(w.Bytes())
	a, err := r.ReadBits(60)
	if err != nil || a != 1 {
		t.Fatalf("a=%d err=%v", a, err)
	}
	b, err := r.ReadBits(12)
	if err != nil || b != 0xabc {
		t.Fatalf("b=%#x err=%v", b, err)
	}
}

func TestReadPastEnd(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("padded byte should satisfy 8 bits: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
}

func TestReadBitPastEnd(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
}

func TestPeekSkip(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b101101, 6)
	w.WriteBits(0xff, 8)
	r := NewReader(w.Bytes())
	v, n := r.Peek(6)
	if n != 6 || v != 0b101101 {
		t.Fatalf("peek got %#b (%d bits)", v, n)
	}
	// Peek must not consume.
	v2, _ := r.Peek(6)
	if v2 != v {
		t.Fatalf("second peek differs: %#b vs %#b", v2, v)
	}
	if err := r.Skip(6); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(8)
	if err != nil || got != 0xff {
		t.Fatalf("got %#x err=%v", got, err)
	}
}

func TestPeekNearEnd(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b1, 1)
	r := NewReader(w.Bytes())
	_, n := r.Peek(20)
	if n != 8 { // one padded byte
		t.Fatalf("avail=%d want 8", n)
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(0)
	if w.BitLen() != 0 {
		t.Fatalf("empty BitLen=%d", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Fatalf("BitLen=%d want 13", w.BitLen())
	}
	for i := 0; i < 8; i++ {
		w.WriteBits(0, 64)
	}
	if w.BitLen() != 13+8*64 {
		t.Fatalf("BitLen=%d want %d", w.BitLen(), 13+8*64)
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		type rec struct {
			v uint64
			w uint
		}
		recs := make([]rec, count)
		wtr := NewWriter(0)
		for i := range recs {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			recs[i] = rec{v, width}
			wtr.WriteBits(v, width)
		}
		rdr := NewReader(wtr.Bytes())
		for _, rc := range recs {
			got, err := rdr.ReadBits(rc.w)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsRemaining(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0, 16)
	r := NewReader(w.Bytes())
	if r.BitsRemaining() != 16 {
		t.Fatalf("remaining=%d want 16", r.BitsRemaining())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.BitsRemaining() != 11 {
		t.Fatalf("remaining=%d want 11", r.BitsRemaining())
	}
}

// Property: gamma codes of small and large values round-trip between raw
// fields of every width, so codes start at every bit offset of a word and the
// long ones span words (the reader scans their zero runs a word at a time).
func TestGammaQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%100 + 1
		w := NewWriter(0)
		raw := make([]uint64, count)
		widths := make([]uint, count)
		gamma := make([]uint64, count)
		for i := 0; i < count; i++ {
			widths[i] = uint(rng.Intn(58))
			raw[i] = rng.Uint64() & (1<<widths[i] - 1)
			gamma[i] = rng.Uint64() >> uint(1+rng.Intn(63))
			w.WriteBits(raw[i], widths[i])
			w.WriteGamma(gamma[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != raw[i] {
				return false
			}
			g, err := r.ReadGamma()
			if err != nil || g != gamma[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignByteAndWriteBytes(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b101, 3)
	w.AlignByte()
	if w.BitLen() != 8 {
		t.Fatalf("BitLen=%d want 8", w.BitLen())
	}
	w.AlignByte() // aligned: must be a no-op
	if w.BitLen() != 8 {
		t.Fatalf("BitLen after second align=%d want 8", w.BitLen())
	}
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	w.WriteBytes(payload)
	w.WriteBits(0x3f, 7)

	r := NewReader(w.Bytes())
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("prefix=%d err=%v", v, err)
	}
	r.AlignByte()
	if off := r.ByteOffset(); off != 1 {
		t.Fatalf("ByteOffset=%d want 1", off)
	}
	for i, want := range payload {
		v, err := r.ReadBits(8)
		if err != nil || byte(v) != want {
			t.Fatalf("payload[%d]=%#x err=%v want %#x", i, v, err, want)
		}
	}
	if v, err := r.ReadBits(7); err != nil || v != 0x3f {
		t.Fatalf("suffix=%#x err=%v", v, err)
	}
}

func TestWriteBytesUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBytes on an unaligned writer did not panic")
		}
	}()
	w := NewWriter(0)
	w.WriteBit(1)
	w.WriteBytes([]byte{1})
}

// TestRefillPeekSkip checks the unchecked reader fast path against the
// checked one, including the sub-word tail where Refill reports fewer
// than 56 bits.
func TestRefillPeekSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWriter(0)
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 13))
		w.WriteBits(vals[i], 13)
	}
	stream := w.Bytes()
	var r Reader
	r.Reset(stream)
	i := 0
	for ; i+4 <= len(vals) && r.Refill() >= 56; i += 4 {
		for k := 0; k < 4; k++ {
			if got := r.PeekFast(13); got != vals[i+k] {
				t.Fatalf("PeekFast at %d: %d want %d", i+k, got, vals[i+k])
			}
			r.SkipFast(13)
		}
	}
	if i == 0 {
		t.Fatal("fast path never engaged")
	}
	for ; i < len(vals); i++ {
		got, err := r.ReadBits(13)
		if err != nil || got != vals[i] {
			t.Fatalf("tail at %d: %d err=%v want %d", i, got, err, vals[i])
		}
	}
	if r.BitsRemaining() >= 8 {
		t.Fatalf("unread bits: %d", r.BitsRemaining())
	}
}
