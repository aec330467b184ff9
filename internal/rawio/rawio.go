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
// pieces) rather than materializing whole files or request bodies.
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

// Reader decodes values off a byte stream.
type Reader[T grid.Float] struct {
	r   io.Reader
	buf []byte
}

// NewReader wraps r. bufValues sizes the internal byte buffer (values per
// read); 0 selects a 64Ki-value buffer.
func NewReader[T grid.Float](r io.Reader, bufValues int) *Reader[T] {
	if bufValues <= 0 {
		bufValues = 64 * 1024
	}
	return &Reader[T]{r: r, buf: make([]byte, bufValues*ElemSize[T]())}
}

// Read fills dst with as many values as the underlying stream yields,
// returning io.EOF at a clean end and io.ErrUnexpectedEOF when the stream
// ends inside a value.
func (r *Reader[T]) Read(dst []T) (int, error) {
	elem := ElemSize[T]()
	total := 0
	for len(dst) > 0 {
		want := len(dst) * elem
		if want > len(r.buf) {
			want = len(r.buf)
		}
		n, err := io.ReadFull(r.r, r.buf[:want])
		if n%elem != 0 && (err == io.ErrUnexpectedEOF || err == io.EOF) {
			return total, io.ErrUnexpectedEOF
		}
		k := n / elem
		GetValues(dst[:k], r.buf[:k*elem])
		dst = dst[k:]
		total += k
		if err == io.ErrUnexpectedEOF {
			err = io.EOF // a whole number of values arrived before the end
		}
		if err != nil {
			if err == io.EOF && total > 0 {
				return total, nil
			}
			return total, err
		}
	}
	return total, nil
}

// ReadExactly fills dst completely or reports how the stream fell short.
func (r *Reader[T]) ReadExactly(dst []T) error {
	pos := 0
	for pos < len(dst) {
		n, err := r.Read(dst[pos:])
		pos += n
		if err == io.EOF {
			return fmt.Errorf("rawio: short input: %d of %d values", pos, len(dst))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Writer encodes values onto a byte stream.
type Writer[T grid.Float] struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w. bufValues sizes the internal byte buffer; 0 selects a
// 64Ki-value buffer.
func NewWriter[T grid.Float](w io.Writer, bufValues int) *Writer[T] {
	if bufValues <= 0 {
		bufValues = 64 * 1024
	}
	return &Writer[T]{w: w, buf: make([]byte, bufValues*ElemSize[T]())}
}

// Write encodes all of src.
func (w *Writer[T]) Write(src []T) error {
	elem := ElemSize[T]()
	for len(src) > 0 {
		k := len(w.buf) / elem
		if k > len(src) {
			k = len(src)
		}
		PutValues(w.buf[:k*elem], src[:k])
		if _, err := w.w.Write(w.buf[:k*elem]); err != nil {
			return err
		}
		src = src[k:]
	}
	return nil
}
