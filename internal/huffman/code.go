package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"stz/internal/bitio"
	"stz/internal/parallel"
	"stz/internal/scratch"
)

// Code is the code table of a laned section: one stream of symbols cut
// into lanes of the caller's geometry, each coded from bit 0 of its own
// bytes, so any set of lanes decodes without the others — the core's v4
// class sections (a lane a brick of a class grid) and sz3's v3 code
// sections (a lane a brick of a level's lattice). In order:
//
//	the Header: the symbol count and the code-length table, byte-aligned;
//	a u16 byte length per lane;
//	a u16 escape count per lane, only when the section has escapes;
//	inline bytes of the caller's (the core keeps its escape values there);
//	the lanes, each zero-padded to a byte.
//
// An escape is a symbol 0 whose value the caller stores, in lane order,
// wherever its format says. A u16 entry holds any lane of up to 16 912
// symbols: at most 31 bits a code, 65 535 bytes. The table is the one
// EncodeLanes would build from the whole stream. AppendHead writes the
// Header and the directory, and WriteLane codes one lane into a buffer of
// the caller's, on any goroutine; OpenSection reads the section back.
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

// HeaderLen reads a Code's Header at the front of data and returns the
// stream's symbol count and the header's length in bytes.
func HeaderLen(data []byte, alphabet int) (n, headLen int, err error) {
	var r bitio.Reader
	nn, d, err := readHeader(&r, data, alphabet)
	if err != nil {
		return 0, 0, err
	}
	releaseDecoder(d)
	r.AlignByte()
	return int(nn), r.ByteOffset(), nil
}

// Typed failures of a laned section, each an ErrCorrupt. OpenSection checks
// the directory whole before anything is sized from it; Decode checks each
// lane as it decodes.
var (
	ErrCodeCount   = fmt.Errorf("%w: code count disagrees with the lanes", ErrCorrupt)
	ErrLaneDir     = fmt.Errorf("%w: lane directory truncated", ErrCorrupt)
	ErrLaneBounds  = fmt.Errorf("%w: lane lengths do not fill the section", ErrCorrupt)
	ErrEscapeCount = fmt.Errorf("%w: lane escape counts disagree with the escapes", ErrCorrupt)
	ErrLaneShort   = fmt.Errorf("%w: lane ends before its symbols", ErrCorrupt)
	ErrLaneLong    = fmt.Errorf("%w: lane ends after its symbols", ErrCorrupt)
)

// Dir is the directory of a laned section on its way. Lane writers fill it
// entry by entry, any number of them at once.
type Dir struct {
	b     []byte
	lanes int
}

// AppendHead appends to out the head of a laned section of the code's
// stream cut into lanes lanes: the Header, then a zeroed directory for Set
// to fill, with escape counts when the stream has escapes (Zeros > 0). The
// directory is out's bytes: out must not grow past its capacity until it
// is filled.
func (c *Code) AppendHead(out []byte, lanes int) ([]byte, Dir) {
	n := 2 * lanes
	if c.zeros > 0 {
		n *= 2
	}
	out = append(slices.Grow(out, len(c.head)+n), c.head...)
	out = out[:len(out)+n]
	clear(out[len(out)-n:])
	return out, Dir{b: out[len(out)-n:], lanes: lanes}
}

// Set records lane l's byte length and escape count (a section without
// escapes has no count to record).
func (d Dir) Set(l, bytes, escapes int) {
	binary.LittleEndian.PutUint16(d.b[2*l:], uint16(bytes))
	if len(d.b) > 2*d.lanes {
		binary.LittleEndian.PutUint16(d.b[2*(d.lanes+l):], uint16(escapes))
	}
}

// Section is a laned section opened for decoding: its code table read and
// its directory checked whole.
type Section struct {
	d       *decoder
	sec     []byte
	sizes   []int
	escapes bool // whether the directory holds escape counts
	// Where the directory, the caller's inline bytes and the first lane
	// start in sec.
	dir, inline, body int
}

// OpenSection opens the laned section sec, whose lane l holds sizes[l]
// symbols < alphabet, which holds escapes escapes in all, and inline bytes
// of the caller's between the directory and the lanes. It checks the
// directory whole before anything is sized from it: the code's symbol
// count is the lanes' (ErrCodeCount); sec holds the directory
// (ErrLaneDir); the escape counts sum to escapes (ErrEscapeCount); and the
// inline bytes and the lanes fill sec exactly (ErrLaneBounds). An open
// section must be released.
func OpenSection(sec []byte, alphabet int, sizes []int, escapes, inline int) (s Section, err error) {
	var r bitio.Reader
	n, d, err := readHeader(&r, sec, alphabet)
	if err != nil {
		return s, err
	}
	defer func() {
		if err != nil {
			releaseDecoder(d)
			s = Section{}
		}
	}()
	total := 0
	for _, size := range sizes {
		total += size
	}
	if n > 0 && len(d.table) == 0 {
		return s, ErrCorrupt // symbols but a table that codes nothing
	}
	if n != uint64(total) {
		return s, fmt.Errorf("%w: %d codes for %d lane symbols", ErrCodeCount, n, total)
	}
	r.AlignByte()
	s = Section{d: d, sec: sec, sizes: sizes, escapes: escapes > 0, dir: r.ByteOffset()}
	s.inline = s.dir + 2*len(sizes)
	if s.escapes {
		s.inline += 2 * len(sizes)
	}
	if s.inline > len(sec) {
		return s, ErrLaneDir
	}
	off, escSum := 0, 0
	for l := range sizes {
		off += s.entry(l)
		escSum += s.Escapes(l)
	}
	if escSum != escapes {
		return s, ErrEscapeCount
	}
	s.body = s.inline + inline
	if s.body+off != len(sec) {
		return s, ErrLaneBounds
	}
	return s, nil
}

// entry is directory entry e.
func (s *Section) entry(e int) int {
	return int(binary.LittleEndian.Uint16(s.sec[s.dir+2*e:]))
}

// Escapes is lane l's escape count.
func (s *Section) Escapes(l int) int {
	if !s.escapes {
		return 0
	}
	return s.entry(len(s.sizes) + l)
}

// Inline is the caller's bytes between the directory and the lanes.
func (s *Section) Inline() []byte { return s.sec[s.inline:s.body] }

// LaneCodes is a decoded lane, as Decode hands it over.
type LaneCodes struct {
	Lane  int      // the lane's number
	Codes []uint16 // its symbols
	// Its Escs escapes are the section's Esc-th, Esc+1-th, … in lane
	// order, and the Slot-th, … of the touched lanes' escapes.
	Esc, Escs, Slot int
}

// Decode decodes the touched lanes (ascending lane numbers), two at a time
// in lockstep, and hands each to fn. With out non-nil the lanes decode into
// out lane after lane, and stay there; with out nil each pair decodes into
// a stage of Decode's own, which fn must not keep. A lane must end in its
// last byte (ErrLaneShort, ErrLaneLong) and, when the section has escapes,
// hold exactly its count of symbols 0 (ErrEscapeCount); a section without
// escapes is not scanned for them. workers > 1 hands the pairs to that many
// goroutines, which run fn. Decode is called once.
func (s *Section) Decode(touched []int32, out []uint16, workers int, fn func(LaneCodes)) error {
	// A small decode's tasks stay on the stack.
	var small [16]laneTask
	tasks := small[:0]
	if len(touched) > len(small) {
		tasks = make([]laneTask, 0, len(touched))
	}
	off, esc, slot, at, want, most := s.body, 0, 0, 0, 0, 0
	for l := 0; len(tasks) < len(touched); l++ {
		n, e, size := s.entry(l), s.Escapes(l), s.sizes[l]
		if int(touched[len(tasks)]) == l {
			if out == nil && len(tasks)%2 == 0 {
				at = 0 // a pair's lanes share the stage
			}
			tasks = append(tasks, laneTask{LaneCodes{Lane: l, Esc: esc, Escs: e, Slot: slot}, lane{bit: 8 * off, end: off + n, at: at, stop: at + size}})
			slot, at, want, most = slot+e, at+size, want+size, max(most, size)
		}
		off, esc = off+n, esc+e
	}
	s.d.build(want)
	if workers <= 1 {
		return s.decodePairs(tasks, out, most, fn)
	}
	// The workers get copies, so that neither s nor tasks escapes.
	sc, tc := *s, slices.Clone(tasks)
	errs := make([]error, (len(tc)+1)/2)
	parallel.For(len(errs), workers, func(i int) { errs[i] = sc.decodePairs(tc[2*i:min(2*i+2, len(tc))], out, most, fn) })
	return errors.Join(errs...)
}

// laneTask is a lane on its way through Decode: what fn is handed, and
// where the lane's bytes and symbols are.
type laneTask struct {
	lc LaneCodes
	ln lane
}

// decodePairs is Decode's loop over tasks: two lanes at a time into out,
// or, with out nil, into a stage of two lanes of at most most symbols.
func (s *Section) decodePairs(tasks []laneTask, out []uint16, most int, fn func(LaneCodes)) error {
	buf := out
	if buf == nil {
		buf = scratch.U16.Lease(2 * most)
		defer scratch.U16.Release(buf)
	}
	for ; len(tasks) > 0; tasks = tasks[min(2, len(tasks)):] {
		pair := tasks[:min(2, len(tasks))]
		var ends [2]int
		var err error
		if len(pair) == 2 {
			ends[0], ends[1], err = s.d.decodeLanePair(s.sec, buf, pair[0].ln, pair[1].ln)
		} else {
			ends[0], err = s.d.decodeLane(s.sec, buf, pair[0].ln)
		}
		if err != nil {
			return fmt.Errorf("%w (lane %d)", ErrLaneShort, pair[0].lc.Lane)
		}
		for j, tk := range pair {
			tk.lc.Codes = buf[tk.ln.at:tk.ln.stop]
			if (ends[j]+7)/8 != tk.ln.end {
				return fmt.Errorf("%w (lane %d)", ErrLaneLong, tk.lc.Lane)
			}
			if s.escapes && zeros(tk.lc.Codes) != tk.lc.Escs {
				return fmt.Errorf("%w (lane %d)", ErrEscapeCount, tk.lc.Lane)
			}
			fn(tk.lc)
		}
	}
	return nil
}

// zeros counts the symbols 0 of codes.
func zeros(codes []uint16) int {
	n := 0
	for _, c := range codes {
		if c == 0 {
			n++
		}
	}
	return n
}

// Release hands the section's tables back. It must not be used again.
func (s *Section) Release() { releaseDecoder(s.d) }
