package container

import (
	"fmt"
	"io"

	"stz/internal/scratch"
)

// WriteTo streams the serialized container to w, producing exactly the
// bytes of Bytes() without materializing the concatenation. It implements
// io.WriterTo for use by streaming encoders whose sections are already
// buffered individually.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	dir := b.appendDir(scratch.Bytes.Lease(dirLen(len(b.sections)))[:0])
	defer scratch.Bytes.Release(dir)
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
	offsets []int // len = count+1, relative to section 0's first byte
}

// ReadDirFrom consumes and validates a container directory from r.
func ReadDirFrom(r io.Reader) (*Dir, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated directory: %w", ErrFormat, err)
	}
	n, err := dirSize(head[:])
	if err != nil {
		return nil, err
	}
	// The directory buffer only lives until the lengths are parsed out.
	dir := scratch.Bytes.Lease(n)
	defer scratch.Bytes.Release(dir)
	copy(dir, head[:])
	if _, err := io.ReadFull(r, dir[8:]); err != nil {
		return nil, fmt.Errorf("%w: truncated directory: %w", ErrFormat, err)
	}
	offsets, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	return &Dir{offsets: offsets}, nil
}

// Count returns the number of sections in the directory.
func (d *Dir) Count() int { return len(d.offsets) - 1 }

// SectionLen returns the length of section i.
func (d *Dir) SectionLen(i int) int64 { return int64(d.offsets[i+1] - d.offsets[i]) }
