package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"stz/internal/scratch"
)

// WriteTo streams the serialized container to w, producing exactly the
// bytes of Bytes() without materializing the concatenation. It implements
// io.WriterTo for use by streaming encoders whose sections are already
// buffered individually.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	dir := scratch.Bytes.Lease(8 + 8*len(b.sections) + 4)
	defer scratch.Bytes.Release(dir)
	binary.LittleEndian.PutUint32(dir, Magic)
	binary.LittleEndian.PutUint32(dir[4:], uint32(len(b.sections)))
	for i, s := range b.sections {
		binary.LittleEndian.PutUint64(dir[8+8*i:], uint64(sectionLen(s)))
	}
	crc := crc32.ChecksumIEEE(dir[:len(dir)-4])
	binary.LittleEndian.PutUint32(dir[len(dir)-4:], crc)
	var total int64
	n, err := w.Write(dir)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, s := range b.sections {
		for _, p := range s {
			n, err := w.Write(p)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Dir is a container directory parsed off a sequential stream: it records
// the section count and lengths, validated against the directory checksum,
// without requiring the payloads to be in memory. After ReadDirFrom
// returns, the reader is positioned at the first byte of section 0 and the
// sections follow back to back in index order.
type Dir struct {
	lengths []int64
}

// ReadDirFrom consumes and validates a container directory from r.
func ReadDirFrom(r io.Reader) (*Dir, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated directory: %w", ErrFormat, err)
	}
	if binary.LittleEndian.Uint32(head[:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint32(head[4:]))
	if count < 0 || count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrFormat, count)
	}
	// The directory buffer only lives until the lengths are parsed out.
	dir := scratch.Bytes.Lease(8 + 8*count)
	defer scratch.Bytes.Release(dir)
	copy(dir, head[:])
	if _, err := io.ReadFull(r, dir[8:]); err != nil {
		return nil, fmt.Errorf("%w: truncated directory: %w", ErrFormat, err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated directory: %w", ErrFormat, err)
	}
	if crc32.ChecksumIEEE(dir) != binary.LittleEndian.Uint32(crcb[:]) {
		return nil, ErrChecksum
	}
	d := &Dir{lengths: make([]int64, count)}
	var total int64
	for i := 0; i < count; i++ {
		l := binary.LittleEndian.Uint64(dir[8+8*i:])
		if l > math.MaxInt64-uint64(total) {
			return nil, fmt.Errorf("%w: section %d length overflow", ErrFormat, i)
		}
		d.lengths[i] = int64(l)
		total += int64(l)
	}
	return d, nil
}

// Count returns the number of sections in the directory.
func (d *Dir) Count() int { return len(d.lengths) }

// SectionLen returns the length of section i.
func (d *Dir) SectionLen(i int) int64 { return d.lengths[i] }

// Total returns the combined payload length of all sections.
func (d *Dir) Total() int64 {
	var t int64
	for _, l := range d.lengths {
		t += l
	}
	return t
}
