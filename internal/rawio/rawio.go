// Package rawio owns the byte form of a grid value: IEEE-754 bits,
// little-endian, ElemSize bytes wide. Every format in the repository tags
// its element type with that width (4 = float32, 8 = float64) and stores
// whole grid values in that form, so the codecs' header tags, anchors,
// outliers and escapes go through ElemSize, AppendValues, PutValues,
// GetValue and GetValues.
//
// It also streams such values between byte streams and []T buffers, the
// I/O substrate shared by the stz CLI and the stzd service: both move grids
// as flat value streams, and both need to do so incrementally (plane-sized
// pieces) rather than materializing whole files or request bodies. Reader
// and Writer move the bytes of the caller's slice itself, with no staging
// buffer, wherever the host is little-endian.
package rawio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"stz/internal/grid"
)

// ElemSize returns the on-wire width of T in bytes (4 or 8), which is also
// the element-type tag every format's header stores.
func ElemSize[T grid.Float]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// PutValues encodes src into dst, which must hold ElemSize*len(src) bytes.
func PutValues[T grid.Float](dst []byte, src []T) {
	if len(dst) < len(src)*ElemSize[T]() {
		panic("rawio: PutValues: dst too short")
	}
	AppendValues(dst[:0], src...)
}

// AppendValues appends the byte form of vals to buf.
//
// AppendValues and GetValue are the one encoder and the one decoder of a
// grid value; PutValues and GetValues loop over them. All four inline, so an
// escape loop's one-value call costs about what a hand-rolled
// binary.LittleEndian append or load does, and a bulk call runs the same
// code. The width test is a constant in every instantiation, so only one arm
// is compiled.
func AppendValues[T grid.Float](buf []byte, vals ...T) []byte {
	for _, v := range vals {
		if unsafe.Sizeof(v) == 4 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
		}
	}
	return buf
}

// GetValue decodes the value at the front of src.
func GetValue[T grid.Float](src []byte) T {
	var v T
	if unsafe.Sizeof(v) == 4 {
		return T(math.Float32frombits(binary.LittleEndian.Uint32(src)))
	}
	return T(math.Float64frombits(binary.LittleEndian.Uint64(src)))
}

// GetValues decodes len(dst) values from src, which must hold
// ElemSize*len(dst) bytes.
func GetValues[T grid.Float](dst []T, src []byte) {
	for i := range dst {
		dst[i] = GetValue[T](src[i*ElemSize[T]():])
	}
}

// hostBigEndian reports that this host stores a value's bytes most
// significant first, so the wire form and a []T's memory differ.
var hostBigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// asBytes views s's memory as bytes.
func asBytes[T grid.Float](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*ElemSize[T]())
}

// swapBytes reverses the byte order of each elem-byte value in b: the
// in-place conversion between the little-endian wire form and a
// big-endian host's values.
func swapBytes(b []byte, elem int) {
	if elem == 4 {
		for i := 0; i+4 <= len(b); i += 4 {
			binary.BigEndian.PutUint32(b[i:], binary.LittleEndian.Uint32(b[i:]))
		}
		return
	}
	for i := 0; i+8 <= len(b); i += 8 {
		binary.BigEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:]))
	}
}

// Reader decodes values off a byte stream. It reads straight into the
// caller's slice: on a little-endian host the wire bytes are the values,
// and a big-endian host swaps each value in place after the read.
type Reader[T grid.Float] struct {
	r    io.Reader
	swap bool
}

// NewReader wraps r.
func NewReader[T grid.Float](r io.Reader) *Reader[T] {
	return &Reader[T]{r: r, swap: hostBigEndian}
}

// Read fills dst with as many values as the underlying stream yields,
// returning io.EOF at a clean end and io.ErrUnexpectedEOF when the stream
// ends inside a value. The count is of whole values; dst past it may hold
// the bytes of a value the stream cut short.
func (r *Reader[T]) Read(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	elem := ElemSize[T]()
	b := asBytes(dst)
	n, err := io.ReadFull(r.r, b)
	k := n / elem
	if r.swap {
		swapBytes(b[:k*elem], elem)
	}
	switch {
	case err == io.ErrUnexpectedEOF && n%elem != 0:
		return k, io.ErrUnexpectedEOF
	case err == io.ErrUnexpectedEOF:
		return k, nil // a whole number of values arrived before the end
	}
	return k, err
}

// ReadExactly fills dst completely or reports how the stream fell short.
func (r *Reader[T]) ReadExactly(dst []T) error {
	n, err := r.Read(dst)
	if err == io.EOF || (err == nil && n < len(dst)) {
		return fmt.Errorf("rawio: short input: %d of %d values", n, len(dst))
	}
	return err
}

// Writer encodes values onto a byte stream. On a little-endian host it
// writes the caller's slice as it is; a big-endian host encodes through a
// bounded buffer, since src is the caller's and io.Writer may not change it.
type Writer[T grid.Float] struct {
	w    io.Writer
	swap bool
	buf  []byte // the big-endian host's encoding buffer
}

// NewWriter wraps w.
func NewWriter[T grid.Float](w io.Writer) *Writer[T] {
	return &Writer[T]{w: w, swap: hostBigEndian}
}

// swapBufBytes bounds a big-endian host's encoding buffer.
const swapBufBytes = 64 << 10

// Write encodes all of src.
func (w *Writer[T]) Write(src []T) error {
	if len(src) == 0 {
		return nil
	}
	if !w.swap {
		_, err := w.w.Write(asBytes(src))
		return err
	}
	elem := ElemSize[T]()
	if want := min(len(src)*elem, swapBufBytes); len(w.buf) < want {
		w.buf = make([]byte, want)
	}
	for len(src) > 0 {
		k := min(len(src), len(w.buf)/elem)
		PutValues(w.buf[:k*elem], src[:k])
		if _, err := w.w.Write(w.buf[:k*elem]); err != nil {
			return err
		}
		src = src[k:]
	}
	return nil
}
