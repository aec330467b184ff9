// Package container implements the random-access stream framing used by
// the STZ core: a sequence of independently addressable byte sections
// behind a checksummed directory. The directory (section count + lengths)
// is what allows random-access decompression to seek directly to the
// sub-block streams it needs and skip the rest.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Magic identifies a container stream.
const Magic = uint32(0x43545a53) // "STZC" little-endian bytes

// maxSections bounds the directory size accepted from untrusted input.
const maxSections = 1 << 20

var (
	// ErrFormat reports a malformed container.
	ErrFormat = errors.New("container: malformed stream")
	// ErrChecksum reports a directory checksum mismatch.
	ErrChecksum = errors.New("container: directory checksum mismatch")
)

// Builder accumulates sections.
type Builder struct {
	sections [][][]byte // each section as its parts
}

// Add appends a section made of parts, in order — one part or several a
// writer filled separately, joined by the one copy serialization makes —
// and returns its index.
func (b *Builder) Add(parts ...[]byte) int {
	b.sections = append(b.sections, parts)
	return len(b.sections) - 1
}

// sectionLen is the byte length of a section made of parts.
func sectionLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// Count returns the number of sections added so far.
func (b *Builder) Count() int { return len(b.sections) }

// Bytes serializes the container: magic, section count, per-section
// lengths, CRC32 of the directory, then the concatenated payloads.
func (b *Builder) Bytes() []byte {
	dirLen := 8 + 8*len(b.sections)
	total := dirLen + 4
	for _, s := range b.sections {
		total += sectionLen(s)
	}
	out := make([]byte, 0, total)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], Magic)
	binary.LittleEndian.PutUint32(tmp[4:], uint32(len(b.sections)))
	out = append(out, tmp[:]...)
	for _, s := range b.sections {
		binary.LittleEndian.PutUint64(tmp[:], uint64(sectionLen(s)))
		out = append(out, tmp[:]...)
	}
	crc := crc32.ChecksumIEEE(out)
	binary.LittleEndian.PutUint32(tmp[:4], crc)
	out = append(out, tmp[:4]...)
	for _, s := range b.sections {
		for _, p := range s {
			out = append(out, p...)
		}
	}
	return out
}

// Archive is a parsed container over a byte slice (sections are views, not
// copies). It keeps a running count of the payload bytes handed out through
// Section — the chunk-read accounting that random-access decoding uses to
// prove a sub-box query touched only the slabs it needed.
type Archive struct {
	buf      []byte
	offsets  []int // len = count+1, relative to payload start
	payload0 int
	// read accumulates the payload bytes returned by Section. Section is
	// called concurrently by the chunk-parallel decoders, so the counter is
	// atomic; it is monotonic until ResetReadBytes.
	read atomic.Int64
}

// Open parses and validates the directory.
func Open(buf []byte) (*Archive, error) {
	if len(buf) < 12 {
		return nil, ErrFormat
	}
	if binary.LittleEndian.Uint32(buf) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint32(buf[4:]))
	if count < 0 || count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrFormat, count)
	}
	dirLen := 8 + 8*count
	if len(buf) < dirLen+4 {
		return nil, ErrFormat
	}
	wantCRC := binary.LittleEndian.Uint32(buf[dirLen:])
	if crc32.ChecksumIEEE(buf[:dirLen]) != wantCRC {
		return nil, ErrChecksum
	}
	offsets := make([]int, count+1)
	for i := 0; i < count; i++ {
		l := binary.LittleEndian.Uint64(buf[8+8*i:])
		if l > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: section %d length overflow", ErrFormat, i)
		}
		offsets[i+1] = offsets[i] + int(l)
	}
	payload0 := dirLen + 4
	if payload0+offsets[count] > len(buf) {
		return nil, fmt.Errorf("%w: truncated payload", ErrFormat)
	}
	return &Archive{buf: buf, offsets: offsets, payload0: payload0}, nil
}

// Count returns the number of sections.
func (a *Archive) Count() int { return len(a.offsets) - 1 }

// Section returns the i-th section payload and charges its length to the
// read accounting.
func (a *Archive) Section(i int) ([]byte, error) {
	if i < 0 || i >= a.Count() {
		return nil, fmt.Errorf("%w: section %d of %d", ErrFormat, i, a.Count())
	}
	a.read.Add(int64(a.offsets[i+1] - a.offsets[i]))
	return a.buf[a.payload0+a.offsets[i] : a.payload0+a.offsets[i+1]], nil
}

// SectionLen returns the length of section i without touching its payload
// (and without charging the read accounting).
func (a *Archive) SectionLen(i int) (int, error) {
	if i < 0 || i >= a.Count() {
		return 0, fmt.Errorf("%w: section %d of %d", ErrFormat, i, a.Count())
	}
	return a.offsets[i+1] - a.offsets[i], nil
}

// SectionOffset returns the absolute byte offset of section i within the
// underlying buffer — the seek position a chunk-addressed reader would use
// against a file or object store.
func (a *Archive) SectionOffset(i int) (int, error) {
	if i < 0 || i >= a.Count() {
		return 0, fmt.Errorf("%w: section %d of %d", ErrFormat, i, a.Count())
	}
	return a.payload0 + a.offsets[i], nil
}

// PayloadLen returns the total payload size in bytes (all sections, not
// counting the directory framing).
func (a *Archive) PayloadLen() int { return a.offsets[len(a.offsets)-1] }

// ReadBytes reports the payload bytes handed out through Section since the
// archive was opened (or since the last ResetReadBytes). Repeated reads of
// the same section are charged each time: the counter models I/O, not
// coverage.
func (a *Archive) ReadBytes() int64 { return a.read.Load() }

// ResetReadBytes zeroes the read accounting.
func (a *Archive) ResetReadBytes() { a.read.Store(0) }
