package huffman

import (
	"sync"

	"stz/internal/bitio"
	"stz/internal/scratch"
)

// Code is the code table of a stream that the caller cuts into lanes of its
// own, any number of them, each a run of its symbols in any order the
// caller likes (the core's v4 class streams code one lane per brick of a
// class grid). The table is built from one histogram of the whole stream,
// so it is the table EncodeLanes would build; what changes is only where
// the lanes are and who knows it. Header holds the symbol count and the
// code-length table, zero-padded to a byte, and WriteLane codes one lane
// from bit 0 of a buffer of the caller's, so lanes can be written on any
// goroutine into buffers placed wherever the caller's format puts them.
// Codes recycle through a pool: Release one when its lanes are written.
type Code struct {
	buildScratch
	headw  bitio.Writer
	head   []byte
	packed []uint64
	zeros  int
	bits   int
	maxLen uint8
	lease  []uint64 // backs bySym
	bySym  *[1 << 16]uint64
}

var codePool = sync.Pool{New: func() any { return new(Code) }}

// NewCode builds the code table of codes. All values must be < alphabet.
func NewCode(codes []uint16, alphabet int) *Code {
	c := codePool.Get().(*Code)
	h := histPool.Get().(*laneHist)
	h.add(codes)
	c.collect(h, alphabet)
	histPool.Put(h)
	// Depth limiting flattens c.counts, so symbol 0's count is read first.
	c.zeros = 0
	if len(c.table) > 0 && c.table[0].sym == 0 {
		c.zeros = int(c.counts[0])
	}
	c.codeLengths()

	w := &c.headw
	w.Reset()
	w.WriteGamma(uint64(len(codes)))
	writeLengths(w, c.table)
	w.AlignByte()
	c.head = w.Bytes()

	c.maxLen, c.bits = 0, 0
	c.lease = scratch.U64.Lease(1 << 16)
	c.bySym = (*[1 << 16]uint64)(c.lease)
	c.packed = packCodes(c.table, c.packed[:0])
	for i, e := range c.table {
		c.bySym[e.sym] = c.packed[i]
		c.maxLen = max(c.maxLen, e.len)
		// The counts as they were: depth limiting flattened c.counts.
		lc := c.laneCounts[i]
		c.bits += (int(lc[0]) + int(lc[1]) + int(lc[2]) + int(lc[3])) * int(e.len)
	}
	return c
}

// Header is what precedes the lanes: the symbol count and the code-length
// table, byte-aligned. It is valid until Release.
func (c *Code) Header() []byte { return c.head }

// Zeros is the count of symbol 0 in the stream.
func (c *Code) Zeros() int { return c.zeros }

// Bits is the number of code bits the whole stream takes.
func (c *Code) Bits() int { return c.bits }

// LaneBound is the most bytes a lane of n symbols can take.
func (c *Code) LaneBound(n int) int { return (n*int(c.maxLen) + 7) / 8 }

// WriteLane codes codes into dst from bit 0, padding the last byte with
// zeros, and returns the lane's length in bytes. dst must hold at least
// LaneBound(len(codes)) bytes; what it held before is overwritten. Lanes do
// not share state, so any number may be written concurrently.
func (c *Code) WriteLane(dst []byte, codes []uint16) int {
	return writeLane(dst, codes, c.bySym, 0)
}

// Release hands the code's buffers back. It must not be used again.
func (c *Code) Release() {
	scratch.U64.Release(c.lease)
	c.lease, c.bySym, c.head = nil, nil, nil
	codePool.Put(c)
}

// Lane locates one lane of a Code-coded stream for CodeReader: the bytes
// [Start, End) of the caller's buffer decode to out[At:Stop].
type Lane struct {
	Start, End int
	At, Stop   int
}

// CodeReader decodes the lanes of a stream written with a Code.
type CodeReader struct {
	d *decoder
}

// ReadCode reads a Code's header from the front of data: it returns the
// stream's symbol count n and the header's length in bytes, and a reader
// whose tables are built for decoding want symbols in all (the lanes the
// caller will decode, which picks the table's kind as DecodeLanesInto's
// stream length does). The reader must be released.
func ReadCode(data []byte, alphabet, want int) (cr CodeReader, n, headLen int, err error) {
	var r bitio.Reader
	nn, d, err := readHeader(&r, data, alphabet)
	if err != nil {
		return cr, 0, 0, err
	}
	if nn > 0 && len(d.table) == 0 {
		releaseDecoder(d)
		return cr, 0, 0, ErrCorrupt // symbols but a table that codes nothing
	}
	r.AlignByte()
	d.build(want)
	return CodeReader{d: d}, int(nn), r.ByteOffset(), nil
}

// DecodePair decodes two lanes of b into out in lockstep, as
// DecodeLanesInto decodes a pair of its own lanes, and returns the bit
// offset in b at which each lane's last symbol ended. A lane whose bytes end
// before its symbols do fails with ErrCorrupt; one whose symbols end before
// its bytes do is the caller's to judge from the offsets.
func (cr CodeReader) DecodePair(b []byte, out []uint16, l0, l1 Lane) (end0, end1 int, err error) {
	return cr.d.decodeLanePair(b, out, l0.lane(), l1.lane())
}

// Decode decodes one lane of b into out; see DecodePair.
func (cr CodeReader) Decode(b []byte, out []uint16, l Lane) (end int, err error) {
	return cr.d.decodeLane(b, out, l.lane())
}

// Release hands the reader's tables back. It must not be used again.
func (cr CodeReader) Release() {
	releaseDecoder(cr.d)
}

func (l Lane) lane() lane { return lane{bit: 8 * l.Start, end: l.End, at: l.At, stop: l.Stop} }
