package container

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b Builder
	secs := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xab}, 1000),
		{1, 2, 3},
	}
	for i, s := range secs {
		if got := b.Add(s); got != i {
			t.Fatalf("Add returned %d want %d", got, i)
		}
	}
	if b.Count() != len(secs) {
		t.Fatalf("Count=%d", b.Count())
	}
	buf := b.Bytes()
	a, err := Open(buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != len(secs) {
		t.Fatalf("archive count=%d", a.Count())
	}
	for i, want := range secs {
		got, err := a.Section(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}

func TestEmptyContainer(t *testing.T) {
	var b Builder
	a, err := Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 {
		t.Fatalf("count=%d", a.Count())
	}
}

func TestSectionOutOfRange(t *testing.T) {
	var b Builder
	b.Add([]byte("x"))
	a, _ := Open(b.Bytes())
	if _, err := a.Section(1); err == nil {
		t.Fatal("out-of-range section accepted")
	}
	if _, err := a.Section(-1); err == nil {
		t.Fatal("negative section accepted")
	}
}

func TestCorruptMagic(t *testing.T) {
	var b Builder
	b.Add([]byte("x"))
	buf := b.Bytes()
	buf[0] ^= 0xff
	if _, err := Open(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestCorruptDirectory(t *testing.T) {
	var b Builder
	b.Add(bytes.Repeat([]byte{7}, 100))
	b.Add(bytes.Repeat([]byte{9}, 50))
	buf := b.Bytes()
	// Flip a bit inside the directory length table.
	buf[9] ^= 0x01
	_, err := Open(buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want checksum error, got %v", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var b Builder
	b.Add(bytes.Repeat([]byte{7}, 100))
	buf := b.Bytes()
	if _, err := Open(buf[:len(buf)-10]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestTruncatedDirectory(t *testing.T) {
	var b Builder
	for i := 0; i < 10; i++ {
		b.Add([]byte{byte(i)})
	}
	buf := b.Bytes()
	if _, err := Open(buf[:20]); err == nil {
		t.Fatal("truncated directory accepted")
	}
}

// TestRandomAccessReadAccounting pins the chunk-read accounting that the
// sub-box decode paths build on: Section charges exactly its payload
// length (every time) and ResetReadBytes restarts the counter.
func TestRandomAccessReadAccounting(t *testing.T) {
	var b Builder
	secs := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		bytes.Repeat([]byte{2}, 100),
		{},
		bytes.Repeat([]byte{3}, 1000),
	}
	for _, s := range secs {
		b.Add(s)
	}
	buf := b.Bytes()
	a, err := Open(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.PayloadLen(), 1110; got != want {
		t.Fatalf("PayloadLen=%d want %d", got, want)
	}
	if a.ReadBytes() != 0 {
		t.Fatalf("fresh archive ReadBytes=%d", a.ReadBytes())
	}
	if _, err := a.Section(1); err != nil {
		t.Fatal(err)
	}
	if a.ReadBytes() != 100 {
		t.Fatalf("after Section(1): ReadBytes=%d want 100", a.ReadBytes())
	}
	// Re-reading charges again: the counter models I/O, not coverage.
	a.Section(1)
	a.Section(0)
	a.Section(2)
	if a.ReadBytes() != 210 {
		t.Fatalf("ReadBytes=%d want 210", a.ReadBytes())
	}
	a.ResetReadBytes()
	if a.ReadBytes() != 0 {
		t.Fatal("ResetReadBytes did not zero the counter")
	}

}

func TestManySections(t *testing.T) {
	var b Builder
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for i := 0; i < 500; i++ {
		s := make([]byte, rng.Intn(64))
		rng.Read(s)
		want = append(want, s)
		b.Add(s)
	}
	a, err := Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := a.Section(i)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}
