package container

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzContainer holds the two directory readers to one verdict on
// arbitrary bytes: neither panics; whatever Open accepts, ReadDirFrom
// accepts with the same section lengths, and Open's sections lie back to
// back inside the buffer after the directory; whatever ReadDirFrom refuses,
// Open refuses.
func FuzzContainer(f *testing.F) {
	build := func(n int) []byte {
		var b Builder
		for i := 0; i < n; i++ {
			b.Add(bytes.Repeat([]byte{byte(i + 1)}, 7*i+1))
		}
		return b.Bytes()
	}
	for _, n := range []int{0, 1, 3} {
		f.Add(build(n))
	}
	three := build(3)
	f.Add(three[:20]) // a truncated directory
	flipped := bytes.Clone(three)
	flipped[8+8*3] ^= 0x01 // a CRC byte
	f.Add(flipped)
	// Lengths past the buffer under a valid CRC: one too long, and two
	// whose sum wraps to zero.
	recrc := func(b []byte, n int) {
		binary.LittleEndian.PutUint32(b[8+8*n:], crc32.ChecksumIEEE(b[:8+8*n]))
	}
	past := build(1)
	binary.LittleEndian.PutUint64(past[8:], 1<<40)
	recrc(past, 1)
	f.Add(past)
	wrap := build(2)
	binary.LittleEndian.PutUint64(wrap[8:], 1<<63)
	binary.LittleEndian.PutUint64(wrap[16:], 1<<63)
	recrc(wrap, 2)
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, b []byte) {
		a, openErr := Open(b)
		d, dirErr := ReadDirFrom(bytes.NewReader(b))
		if openErr != nil {
			return
		}
		if dirErr != nil {
			t.Fatalf("Open accepted what ReadDirFrom refused: %v", dirErr)
		}
		if a.Count() != d.Count() {
			t.Fatalf("Open sees %d sections, ReadDirFrom %d", a.Count(), d.Count())
		}
		pos := 8 + 8*a.Count() + 4
		for i := 0; i < a.Count(); i++ {
			sec, err := a.Section(i)
			if err != nil {
				t.Fatalf("section %d: %v", i, err)
			}
			if int64(len(sec)) != d.SectionLen(i) {
				t.Fatalf("section %d: Open length %d, ReadDirFrom %d", i, len(sec), d.SectionLen(i))
			}
			if pos+len(sec) > len(b) || !bytes.Equal(sec, b[pos:pos+len(sec)]) {
				t.Fatalf("section %d is not the %d bytes at %d of a %d-byte buffer", i, len(sec), pos, len(b))
			}
			pos += len(sec)
		}
	})
}
