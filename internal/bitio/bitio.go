// Package bitio provides bit-level serialization primitives used by the
// entropy-coding stages of the compressors in this repository (Huffman
// streams, the mini-ZFP embedded coder).
//
// Bits are packed least-significant-bit first into 64-bit words that are
// flushed little-endian, so a stream written on any platform decodes
// identically on any other.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Writer accumulates bits into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf   []byte
	acc   uint64 // bit accumulator, LSB-first
	nbits uint   // number of valid bits in acc
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	w := &Writer{}
	if sizeHint > 0 {
		w.buf = make([]byte, 0, sizeHint)
	}
	return w
}

// Reset clears the writer for reuse, keeping the buffer capacity. It lets
// per-block encoders recycle one Writer instead of allocating per block.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nbits = 0
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.acc |= uint64(b&1) << w.nbits
	w.nbits++
	if w.nbits == 64 {
		w.flushWord()
	}
}

// WriteBits appends the low n bits of v, LSB first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.acc |= v << w.nbits
	free := 64 - w.nbits
	if n < free {
		w.nbits += n
		return
	}
	// acc is full: flush and keep the spillover.
	spill := n - free
	w.flushWord()
	if spill > 0 {
		w.acc = v >> free
		w.nbits = spill
	}
}

// DrainBytes flushes the accumulator's complete bytes to the buffer,
// leaving at most 7 buffered bits (so Free() >= 57). The stream contents
// are unchanged; this only moves finished bytes out of the accumulator.
func (w *Writer) DrainBytes() {
	nb := w.nbits >> 3
	if nb == 0 {
		return
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], w.acc)
	w.buf = append(w.buf, tmp[:nb]...)
	w.acc >>= nb * 8
	w.nbits -= nb * 8
}

// AlignByte zero-pads the stream to the next byte boundary and drains the
// accumulator, so the next write (or WriteBytes) starts a fresh byte.
func (w *Writer) AlignByte() {
	if pad := (8 - w.nbits%8) % 8; pad > 0 {
		w.WriteBits(0, pad)
	}
	w.DrainBytes()
}

// WriteBytes appends p verbatim. The writer must be byte-aligned
// (AlignByte); sub-byte state would silently corrupt the stream, so this
// panics instead.
func (w *Writer) WriteBytes(p []byte) {
	if w.nbits != 0 {
		panic("bitio: WriteBytes on unaligned writer")
	}
	w.buf = append(w.buf, p...)
}

func (w *Writer) flushWord() {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], w.acc)
	w.buf = append(w.buf, tmp[:]...)
	w.acc = 0
	w.nbits = 0
}

// BitLen reports the number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nbits)
}

// Bytes finalizes the stream and returns the packed bytes. Trailing bits in
// a partial word are zero-padded. The Writer may continue to be used; the
// padding becomes part of the stream, so callers should finalize once.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.nbits > 0 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], w.acc)
		nb := (w.nbits + 7) / 8
		out = append(out, tmp[:nb]...)
		w.buf = out
		w.acc = 0
		w.nbits = 0
	}
	return out
}

// WriteGamma appends v as an Elias-gamma code of v+1 (so v = 0 is
// representable): a unary length prefix followed by the value bits,
// MSB-first. The prefix and the value are emitted as two WriteBits calls
// (the MSB-first value bits become an LSB-first word by bit reversal).
func (w *Writer) WriteGamma(v uint64) {
	x := v + 1
	if x == 0 { // v == MaxUint64: degenerate, matches the historic encoding
		w.WriteBit(0)
		return
	}
	n := uint(bits.Len64(x)) - 1
	w.WriteBits(0, n)
	w.WriteBits(bits.Reverse64(x)>>(63-n), n+1)
}

// ErrOutOfBits is returned when a Reader is asked for more bits than the
// underlying buffer holds.
var ErrOutOfBits = errors.New("bitio: read past end of stream")

// ErrGammaOverflow is returned when a gamma code's length prefix exceeds 63.
var ErrGammaOverflow = errors.New("bitio: gamma code overflow")

// Reader consumes bits from a byte slice produced by Writer.
type Reader struct {
	buf  []byte
	pos  int    // next byte index to load
	acc  uint64 // bit accumulator, LSB-first
	navl uint   // number of valid bits in acc
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset repositions the reader over buf, allowing a zero-value or used
// Reader to be recycled without allocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc = 0
	r.navl = 0
}

func (r *Reader) fill() {
	// Word-level top-up: load 8 bytes at once and advance by however many
	// whole bytes fit the accumulator, falling back to byte loads only for
	// the final partial word of the buffer.
	if r.navl < 56 && r.pos+8 <= len(r.buf) {
		w := binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.acc |= w << r.navl
		adv := (63 - r.navl) >> 3
		r.pos += int(adv)
		r.navl += adv * 8
		// Only adv whole bytes were consumed: bits of w above the new valid
		// count land in acc but belong to bytes not yet advanced past, so
		// they must be cleared to keep the "bits >= navl are zero" invariant
		// (Peek and ReadGamma rely on it).
		r.acc &= 1<<r.navl - 1
	}
	for r.navl <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.navl
		r.pos++
		r.navl += 8
	}
}

// Refill tops the accumulator up so it holds at least 56 valid bits
// whenever the buffer still has that much data, and returns the valid bit
// count. After a Refill returning >= 56, PeekFast/SkipFast may consume up
// to 56 bits with no further checks — the batched fast path of the Huffman
// and bit-plane decoders.
func (r *Reader) Refill() uint {
	if r.navl >= 56 {
		return r.navl
	}
	r.fill()
	return r.navl
}

// PeekFast returns the next n bits without consuming them and without
// bounds checks. Bits beyond the valid count read as zero; the caller is
// responsible for having established availability via Refill.
func (r *Reader) PeekFast(n uint) uint64 { return r.acc & (1<<n - 1) }

// SkipFast consumes n bits with no bounds checks; n must not exceed the
// valid bit count established by Refill.
func (r *Reader) SkipFast(n uint) {
	r.acc >>= n
	r.navl -= n
}

// AlignByte discards bits up to the next byte boundary of the underlying
// stream (a no-op when already aligned).
func (r *Reader) AlignByte() {
	drop := r.navl % 8
	r.acc >>= drop
	r.navl -= drop
}

// ByteOffset returns the buffer index of the next unread bit. The reader
// must be byte-aligned (AlignByte); it is used to locate byte-framed
// payloads (e.g. Huffman lane segments) after a bit-packed header.
func (r *Reader) ByteOffset() int { return r.pos - int(r.navl)/8 }

// ReadBit consumes and returns a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.navl == 0 {
		r.fill()
		if r.navl == 0 {
			return 0, ErrOutOfBits
		}
	}
	b := uint(r.acc & 1)
	r.acc >>= 1
	r.navl--
	return b, nil
}

// ReadBits consumes n bits (n in [0, 64]) and returns them LSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	if r.navl < n {
		r.fill()
	}
	if r.navl >= n {
		var v uint64
		if n == 64 {
			v = r.acc
			r.acc = 0
			r.navl = 0
			r.fill()
			return v, nil
		}
		v = r.acc & ((1 << n) - 1)
		r.acc >>= n
		r.navl -= n
		return v, nil
	}
	// Straddles the end of what fill() could load: drain acc, then retry.
	got := r.navl
	v := r.acc
	r.acc = 0
	r.navl = 0
	r.fill()
	rest := n - got
	if r.navl < rest {
		return 0, ErrOutOfBits
	}
	hi := r.acc & ((1 << rest) - 1)
	r.acc >>= rest
	r.navl -= rest
	return v | hi<<got, nil
}

// Peek returns up to n bits (n in [1, 57]) without consuming them. If the
// stream has fewer than n bits left, the missing high bits are zero. The
// second result is the number of real bits available.
func (r *Reader) Peek(n uint) (uint64, uint) {
	if n > 57 {
		panic("bitio: Peek limited to 57 bits")
	}
	if r.navl < n {
		r.fill()
	}
	avail := r.navl
	if avail > n {
		avail = n
	}
	return r.acc & ((1 << n) - 1), avail
}

// Skip consumes n bits, which must have been previously Peeked.
func (r *Reader) Skip(n uint) error {
	if r.navl < n {
		r.fill()
		if r.navl < n {
			return ErrOutOfBits
		}
	}
	r.acc >>= n
	r.navl -= n
	return nil
}

// ReadGamma decodes a code written by WriteGamma. The zero-run prefix is
// scanned word-at-a-time and the value bits are read in one ReadBits call
// (bit-reversed back to MSB-first).
func (r *Reader) ReadGamma() (uint64, error) {
	var zeros uint
	for {
		r.fill()
		if r.navl == 0 {
			return 0, ErrOutOfBits
		}
		tz := uint(bits.TrailingZeros64(r.acc))
		if tz >= r.navl {
			zeros += r.navl
			r.acc = 0
			r.navl = 0
			if zeros > 63 {
				return 0, ErrGammaOverflow
			}
			continue
		}
		zeros += tz
		r.acc >>= tz + 1
		r.navl -= tz + 1
		break
	}
	if zeros > 63 {
		return 0, ErrGammaOverflow
	}
	if zeros == 0 {
		return 0, nil
	}
	v, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	x := uint64(1)<<zeros | bits.Reverse64(v)>>(64-zeros)
	return x - 1, nil
}

// BitsRemaining reports a lower bound on the number of unread bits.
func (r *Reader) BitsRemaining() int {
	return int(r.navl) + (len(r.buf)-r.pos)*8
}
