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
	"math"
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

// dirLen is the byte length of a directory of count sections: magic,
// count, one length a section, CRC32.
func dirLen(count int) int { return 8 + 8*count + 4 }

// appendDir appends the directory to dst: magic, section count,
// per-section lengths, then the CRC32 of those.
func (b *Builder) appendDir(dst []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.sections)))
	for _, s := range b.sections {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sectionLen(s)))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Bytes serializes the container: the directory, then the concatenated
// payloads.
func (b *Builder) Bytes() []byte {
	total := dirLen(len(b.sections))
	for _, s := range b.sections {
		total += sectionLen(s)
	}
	out := b.appendDir(make([]byte, 0, total))
	for _, s := range b.sections {
		for _, p := range s {
			out = append(out, p...)
		}
	}
	return out
}

// dirSize checks a directory's first 8 bytes — magic and section count —
// and returns the whole directory's length.
func dirSize(head []byte) (int, error) {
	if binary.LittleEndian.Uint32(head) != Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint32(head[4:]))
	if count < 0 || count > maxSections {
		return 0, fmt.Errorf("%w: implausible section count %d", ErrFormat, count)
	}
	return dirLen(count), nil
}

// parseDir is the one directory parser. dir is a whole directory, as long
// as dirSize says; parseDir checks it against its CRC and returns the
// section offsets relative to the first payload byte: one a section plus
// the payload's total length, which cannot overflow an int.
func parseDir(dir []byte) ([]int, error) {
	n := len(dir) - 4
	if crc32.ChecksumIEEE(dir[:n]) != binary.LittleEndian.Uint32(dir[n:]) {
		return nil, ErrChecksum
	}
	offsets := make([]int, (n-8)/8+1)
	for i := range len(offsets) - 1 {
		l := binary.LittleEndian.Uint64(dir[8+8*i:])
		if l > uint64(math.MaxInt-offsets[i]) {
			return nil, fmt.Errorf("%w: section %d length overflow", ErrFormat, i)
		}
		offsets[i+1] = offsets[i] + int(l)
	}
	return offsets, nil
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

// Open parses and validates the directory, then checks that the payloads
// it declares fit in buf.
func Open(buf []byte) (*Archive, error) {
	if len(buf) < 8 {
		return nil, ErrFormat
	}
	payload0, err := dirSize(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < payload0 {
		return nil, ErrFormat
	}
	offsets, err := parseDir(buf[:payload0])
	if err != nil {
		return nil, err
	}
	if offsets[len(offsets)-1] > len(buf)-payload0 {
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
