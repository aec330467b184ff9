// Package huffman implements a canonical Huffman codec over 16-bit symbols.
//
// It is the lossless-encoding stage shared by the SZ3 baseline, the STZ
// core, and the MGARD-lite and SPERR-lite baselines: quantization codes are
// histogrammed, a depth-limited canonical code is built, and the code-length
// table is serialized ahead of the bitstream so each sub-block stream is
// self-describing and independently decodable.
//
// The encoder plans before it writes (Plan): the histogram is kept per lane,
// so the code table, each lane's exact length and with them the header, the
// lane directory and the blob's size are known before a payload byte exists,
// and the lanes are then written straight to their final offsets — in a
// buffer of the caller's, on the caller's goroutines, if it wants.
//
// The encoder and decoder are allocation-free in steady state: the lane
// histogram, the plan (present symbols, tree nodes, sorted leaves, header
// bytes), the by-symbol code table and the decoder state all recycle through
// scratch arenas and local sync.Pools.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"stz/internal/bitio"
	"stz/internal/parallel"
)

const (
	maxCodeLen = 31 // longest admissible code, fits the 5-bit length field

	// tableBits is the window of the decoder's lookup table: an entry is
	// indexed by the next tableBits transmitted bits and retires every whole
	// symbol inside them (up to four), so the bits an entry consumes fit
	// the low nibble of its meta byte.
	tableBits    = 11
	tableEntries = 1 << tableBits
	// multiMin is the symbol count from which a decode call builds
	// multi-symbol entries: below it the extra table pass (~10 µs) costs
	// more than the faster loop saves (break-even measured at ~3 Ki symbols
	// of a 2.8 bits/symbol stream, ~8 Ki at 6 bits/symbol).
	multiMin = 1 << 13

	// numLanes is the lane count of the v2 multi-stream payload: the symbol
	// stream is split into numLanes near-equal contiguous segments, each
	// encoded as an independent bitstream over one shared code table.
	numLanes = 4
	// laneParallelMin is the symbol count from which DecodeLanesInto hands
	// lanes to parallel.For workers instead of decoding them on the calling
	// goroutine (below it, goroutine overhead dominates).
	laneParallelMin = 1 << 16
)

// ErrCorrupt is returned when a stream fails structural validation.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// symLen is one entry of a code-length table: a present symbol and its code
// length. Tables list their entries by ascending symbol — the order the wire
// format stores them in — so every table pass costs the symbols present,
// not the alphabet.
type symLen struct {
	sym uint16
	len uint8
}

type treeNode struct {
	count       uint64
	order       int32 // tie-break for deterministic trees
	left, right int32 // -1 for leaves; leaf i codes table entry i
}

// buildScratch is the code builder's reusable state, part of every pooled
// Plan: the present-symbol table with its counts, the node arena and the
// sorted leaf keys. The backing arrays recycle across encodes.
type buildScratch struct {
	table      []symLen           // present symbols, ascending; lengths set by codeLengths
	counts     []uint64           // parallel to table; flattened in place when depth-limiting
	laneCounts [][numLanes]uint32 // parallel to table: the symbol's count in each lane
	nodes      []treeNode
	leaves     []uint64 // count<<leafBits | leaf index, ascending
	stack      []int32  // iterative depth walk, node indices
	depth      []uint8  // parallel to stack
}

// leafBits holds a leaf index: at most 1<<16 symbols are present. A count
// is below 2^34 (codec.CheckDims caps a stream at 2^33 symbols), so a key
// fits 51 bits.
const leafBits = 17

// nodeLess orders nodes by (count, order), a strict total order: the order
// the tree joins them in, which fixes the code table.
func nodeLess(nodes []treeNode, a, b int32) bool {
	na, nb := &nodes[a], &nodes[b]
	if na.count != nb.count {
		return na.count < nb.count
	}
	return na.order < nb.order
}

// codeLengths sets the Huffman code length of every bs.table entry from
// bs.counts. Lengths are depth-limited to maxCodeLen by flattening the
// counts and rebuilding when necessary.
func (bs *buildScratch) codeLengths() {
	for bs.buildLengths() > maxCodeLen {
		for i, c := range bs.counts {
			if c > 1 {
				bs.counts[i] = (c + 1) / 2
			}
		}
	}
}

func (bs *buildScratch) buildLengths() uint8 {
	present := len(bs.table)
	switch present {
	case 0:
		return 0
	case 1:
		bs.table[0].len = 1
		return 1
	}
	nodes := bs.nodes[:0]
	if cap(nodes) < 2*present {
		nodes = make([]treeNode, 0, 2*present)
	}
	leaves := bs.leaves[:0]
	for i, c := range bs.counts {
		nodes = append(nodes, treeNode{count: c, order: int32(i), left: -1, right: -1})
		leaves = append(leaves, c<<leafBits|uint64(i))
	}
	// The leaves in (count, order) order: a leaf's order is its index.
	slices.Sort(leaves)
	// Two queues replace a priority queue. Each join takes the two least
	// nodes left, so joined nodes are made in ascending (count, order) —
	// their order is their index, above every leaf's — and the lesser of
	// the two fronts is the least node left: the joins are a heap's, node
	// for node.
	li, ji := 0, present
	next := func() int32 {
		if li < present {
			leaf := int32(leaves[li] & (1<<leafBits - 1))
			if ji == len(nodes) || nodeLess(nodes, leaf, int32(ji)) {
				li++
				return leaf
			}
		}
		ji++
		return int32(ji - 1)
	}
	for len(nodes) < 2*present-1 {
		a := next()
		b := next()
		nodes = append(nodes, treeNode{
			count: nodes[a].count + nodes[b].count,
			order: int32(len(nodes)),
			left:  a, right: b,
		})
	}
	bs.nodes, bs.leaves = nodes, leaves
	root := int32(len(nodes) - 1)
	// Iterative depth assignment over the pooled stacks.
	stack, depth := bs.stack[:0], bs.depth[:0]
	stack = append(stack, root)
	depth = append(depth, 0)
	var maxLen uint8
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		d := depth[len(depth)-1]
		stack, depth = stack[:len(stack)-1], depth[:len(depth)-1]
		n := &bs.nodes[ni]
		if n.left < 0 {
			bs.table[ni].len = d
			if d > maxLen {
				maxLen = d
			}
			continue
		}
		stack = append(stack, n.left, n.right)
		depth = append(depth, d+1, d+1)
	}
	bs.stack, bs.depth = stack, depth
	return maxLen
}

// firstCodes derives the canonical code assignment of a code-length table:
// the number of codes of each length, the first (MSB-first) code of each
// length, and the longest length. Symbols of equal length take consecutive
// codes in table (ascending symbol) order.
func firstCodes(table []symLen) (blCount, firstCode [maxCodeLen + 1]uint32, maxLen uint8) {
	for _, e := range table {
		blCount[e.len]++
		if e.len > maxLen {
			maxLen = e.len
		}
	}
	var code uint32
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + blCount[l-1]) << 1
		firstCode[l] = code
	}
	return blCount, firstCode, maxLen
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint32, n uint8) uint32 {
	return bits.Reverse32(v) >> (32 - n)
}

// writeLengths serializes the code-length table as (numDistinct, then per
// present symbol: gamma(delta-1 from previous present symbol), 5-bit length).
func writeLengths(w *bitio.Writer, table []symLen) {
	w.WriteGamma(uint64(len(table)))
	prev := -1
	for _, e := range table {
		w.WriteGamma(uint64(int(e.sym) - prev - 1))
		w.WriteBits(uint64(e.len), 5)
		prev = int(e.sym)
	}
}

// decoder is the canonical decoding state derived from a code-length table.
// Decoders recycle through decoderPool; the lookup table is part of the
// struct (tableEntries × 9 bytes) and the slices keep their backing arrays.
type decoder struct {
	// table holds the (symbol, length) pairs exactly as readTable parses
	// them off the wire; every derived table below is built from this list.
	table  []symLen
	maxLen uint8
	// need is the most bits a lookup may consume: max(maxLen, tableBits).
	// The unchecked loops look up only with that many valid bits in hand,
	// so neither the table nor slowWalk reads a bit the lane does not hold.
	need uint
	// Lookup table, indexed by the next tableBits transmitted bits (LSB =
	// next bit). syms holds the symbols the entry retires, first symbol in
	// the low 16 bits; meta is count<<4 | bits consumed. meta&15 == 0: the
	// first code is longer than the window (or no code matches), take
	// slowWalk. build fills one symbol per entry for short decodes and
	// every whole symbol that fits the window, up to four, for long ones —
	// one format, so the decode loops do not know which they run on.
	syms [tableEntries]uint64
	meta [tableEntries]uint8
	// slow path canonical walk tables.
	firstCode  [maxCodeLen + 1]uint32
	firstIndex [maxCodeLen + 1]uint32
	blCount    [maxCodeLen + 1]uint32
	symByOrder []uint16
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

func releaseDecoder(d *decoder) { decoderPool.Put(d) }

// readTable deserializes and validates the code-length table into d.table:
// symbols strictly ascending and below alphabet, lengths in [1, maxCodeLen],
// and a Kraft sum no corrupt table can use to make the decoder mis-walk.
func (d *decoder) readTable(r *bitio.Reader, alphabet int) error {
	distinct, err := r.ReadGamma()
	if err != nil {
		return err
	}
	// An entry costs at least 6 bits (1-bit gamma + 5-bit length), so a count
	// the rest of the blob cannot hold is rejected before the table grows.
	if distinct > uint64(alphabet) || distinct*6 > uint64(r.BitsRemaining()) {
		return ErrCorrupt
	}
	d.table = d.table[:0]
	var kraft uint64
	sym := -1
	for i := uint64(0); i < distinct; i++ {
		delta, err := r.ReadGamma()
		if err != nil {
			return err
		}
		l, err := r.ReadBits(5)
		if err != nil {
			return err
		}
		// Bound the delta before the int conversion: a crafted gamma near
		// 2^64 would wrap sym negative and slip past the >= alphabet check.
		if delta >= uint64(alphabet) {
			return ErrCorrupt
		}
		sym += int(delta) + 1
		if sym >= alphabet || l == 0 || l > maxCodeLen {
			return ErrCorrupt
		}
		d.table = append(d.table, symLen{sym: uint16(sym), len: uint8(l)})
		kraft += 1 << (maxCodeLen - uint(l))
	}
	// An empty or single-symbol table (one bit by construction) is exempt.
	if distinct > 1 && kraft > 1<<maxCodeLen {
		return fmt.Errorf("%w: oversubscribed code", ErrCorrupt)
	}
	return nil
}

// build derives the canonical walk tables and the lookup table from
// d.table, for a call that will decode want symbols: every entry first gets
// the one symbol its leading code names, and when want reaches multiMin the
// entries are extended, in place, with the further whole symbols their
// window holds. The extension costs a pass over the table, which a short
// decode would not earn back.
func (d *decoder) build(want int) {
	d.blCount, d.firstCode, d.maxLen = firstCodes(d.table)
	d.need = max(uint(d.maxLen), tableBits)
	var index uint32
	for l := range d.firstIndex {
		d.firstIndex[l] = index
		index += d.blCount[l]
	}
	if cap(d.symByOrder) < len(d.table) {
		d.symByOrder = make([]uint16, len(d.table))
	}
	d.symByOrder = d.symByOrder[:len(d.table)]
	// Symbols in canonical order, by (length, symbol); canonical codes are
	// derived on the fly so decoding never needs a per-symbol code array.
	nextIdx := d.firstIndex
	for _, e := range d.table {
		d.symByOrder[nextIdx[e.len]] = e.sym
		nextIdx[e.len]++
	}
	// One-symbol entries, shortest codes first: the table of an l-bit window
	// is the table of the (l-1)-bit window twice over — an entry there never
	// looked at bit l — plus the l-bit codes, which are no shorter code's
	// extension and so land on entries still empty. Every entry is written,
	// so nothing of the decoder's previous use survives.
	d.meta[0] = 0
	for l := uint8(1); l <= tableBits; l++ {
		half := 1 << (l - 1)
		copy(d.syms[half:2*half], d.syms[:half])
		copy(d.meta[half:2*half], d.meta[:half])
		for i, sym := range d.symByOrder[d.firstIndex[l]:][:d.blCount[l]] {
			v := reverseBits(d.firstCode[l]+uint32(i), l)
			d.syms[v], d.meta[v] = uint64(sym), 1<<4|l
		}
	}
	if want < multiMin {
		return
	}
	// Extend each entry with the symbols that follow its first one inside
	// the window: the bits after a first code of l bits are v>>l, and the
	// symbols entry v>>l — already extended, v>>l < v — decodes from them
	// are the ones entry v wants, as far as they end inside the tableBits-l
	// bits of the window that are left; a symbol that ends there was decoded
	// from those bits alone. ends[v] keeps, a byte per symbol, the bits
	// consumed through each symbol of entry v (noSym where it holds fewer),
	// so the cut is a bytewise compare and no step branches on the data.
	const noSym = 0x7f7f7f7f
	var ends [tableEntries]uint32
	if l := uint32(d.meta[0] & 15); l != 0 {
		// Entry 0 is its own tail, the all-zeros code repeated: seed it.
		d.syms[0] *= 0x0001000100010001
		ends[0] = l * 0x04030201
	}
	for v := range ends {
		l := uint32(d.meta[v] & 15)
		if l == 0 {
			ends[v] = noSym
			continue
		}
		tail := v >> l
		// Byte i of the difference keeps its top bit iff ends[tail] byte i
		// <= tableBits-l; bytes are at most 0x7f, so none borrows.
		fit := ((tableBits-l)*0x01010101 | 0x80808080) - ends[tail]
		keep := min(uint(bits.OnesCount32(fit&0x80808080)), 3)
		e := ends[tail]<<8 + l*0x01010101
		held := uint32(1)<<(8*(keep+1)) - 1
		ends[v] = e&held | noSym&^held
		d.syms[v] = d.syms[v]&0xffff | d.syms[tail]&(1<<(16*keep)-1)<<16
		d.meta[v] = uint8((keep+1)<<4 | uint(e>>(8*keep)&0xff))
	}
}

// slowWalk canonically decodes one symbol from the peeked word v (LSB =
// next transmitted bit) without the lookup table, one code length at a
// time. It starts after the first skip lengths: tableBits when a table miss
// has already ruled those out, 0 otherwise. Returns ok=false when no code
// matches within maxLen bits.
func (d *decoder) slowWalk(v uint64, skip uint8) (sym uint16, length uint, ok bool) {
	code := reverseBits(uint32(v)&(1<<skip-1), skip)
	v >>= skip
	for l := skip + 1; l <= d.maxLen; l++ {
		code = code<<1 | uint32(v&1)
		v >>= 1
		cnt := d.blCount[l]
		if cnt > 0 && code >= d.firstCode[l] && code < d.firstCode[l]+cnt {
			return d.symByOrder[d.firstIndex[l]+code-d.firstCode[l]], uint(l), true
		}
	}
	return 0, 0, false
}

// packCodes derives the canonical codes of table and appends, for every
// entry, its transmitted-order (bit-reversed) code and its length as
// code<<8 | len — what the encode hot loop loads per symbol.
func packCodes(table []symLen, packed []uint64) []uint64 {
	_, nextCode, _ := firstCodes(table)
	for _, e := range table {
		packed = append(packed, uint64(reverseBits(nextCode[e.len], e.len))<<8|uint64(e.len))
		nextCode[e.len]++
	}
	return packed
}

// laneBounds returns lane k's symbol range [lo, hi): numLanes near-equal
// contiguous segments of an n-symbol stream.
func laneBounds(n, k int) (lo, hi int) {
	return k * n / numLanes, (k + 1) * n / numLanes
}

// Decode reverses Encode. alphabet must match the encoder's.
func Decode(data []byte, alphabet int) ([]uint16, error) {
	return DecodeInto(nil, data, alphabet)
}

// decodeHeader runs the shared decoder prologue: read the symbol count,
// sanity-check it, lease a decoder and read + validate the code-length
// table. On success the reader is positioned at the first payload bit and
// the caller owns the leased decoder (releaseDecoder; it must build the
// decode tables for the symbols it is about to decode) and the returned
// output slice (dst reused when its capacity suffices).
func decodeHeader(r *bitio.Reader, dst []uint16, data []byte, alphabet int) ([]uint16, *decoder, error) {
	n, d, err := readHeader(r, data, alphabet)
	if err != nil {
		return nil, nil, err
	}
	var out []uint16
	if uint64(cap(dst)) >= n {
		out = dst[:n]
	} else {
		out = make([]uint16, n)
	}
	return out, d, nil
}

// readHeader reads the symbol count and the code-length table off the front
// of data into a leased decoder, which the caller owns on success.
func readHeader(r *bitio.Reader, data []byte, alphabet int) (uint64, *decoder, error) {
	r.Reset(data)
	n, err := r.ReadGamma()
	if err != nil {
		return 0, nil, err
	}
	const maxReasonable = 1 << 34
	// Every symbol costs at least one payload bit, so a count beyond the
	// blob's bit length is structurally impossible — reject it before the
	// output allocation, or a dozen corrupt bytes could demand gigabytes.
	if n > maxReasonable || n > uint64(len(data))*8 {
		return 0, nil, ErrCorrupt
	}
	d := decoderPool.Get().(*decoder)
	if err := d.readTable(r, alphabet); err != nil {
		releaseDecoder(d)
		return 0, nil, err
	}
	return n, d, nil
}

// DecodeInto reverses Encode, decoding into dst when its capacity suffices
// (dst may be nil). The returned slice aliases dst's backing array when it
// was reused; callers that lease dst from a scratch arena own the result.
// alphabet must match the encoder's.
func DecodeInto(dst []uint16, data []byte, alphabet int) ([]uint16, error) {
	var r bitio.Reader
	out, d, err := decodeHeader(&r, dst, data, alphabet)
	if err != nil {
		return nil, err
	}
	defer releaseDecoder(d)
	d.build(len(out))
	// The payload is one lane that starts at the header's last bit, mid-byte.
	payload := lane{bit: len(data)*8 - r.BitsRemaining(), end: len(data), stop: len(out)}
	if _, err := d.decodeLane(data, out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// lane is the decode state of one independent bitstream of a blob: the bit
// cursor and the byte the lane ends at, the output cursor and the index the
// lane's symbols end at. Every decode loop keeps bit <= 8*end and at <= stop.
type lane struct {
	bit, end int
	at, stop int
}

// decodeLanesHeader is the prologue the lane decoders share: decodeHeader,
// then the lane directory, resolved into the numLanes lanes of data. An
// empty stream (len(out) == 0) has no directory and no lanes.
func decodeLanesHeader(dst []uint16, data []byte, alphabet int) (out []uint16, d *decoder, lanes [numLanes]lane, err error) {
	var r bitio.Reader
	if out, d, err = decodeHeader(&r, dst, data, alphabet); err != nil || len(out) == 0 {
		return out, d, lanes, err
	}
	if len(d.table) == 0 {
		err = ErrCorrupt // n > 0 but the table codes nothing
	} else {
		lanes, err = splitLanes(&r, data, len(out))
	}
	if err != nil {
		releaseDecoder(d)
		return nil, nil, lanes, err
	}
	return out, d, lanes, nil
}

// splitLanes reads the byte-aligned lane directory at r's position in data
// and resolves it into the byte range and the symbol range (laneBounds) of
// every lane of an n-symbol stream.
func splitLanes(r *bitio.Reader, data []byte, n int) (lanes [numLanes]lane, err error) {
	r.AlignByte()
	var laneLen [numLanes - 1]uint64
	for k := range laneLen {
		if laneLen[k], err = r.ReadBits(40); err != nil {
			return lanes, err
		}
	}
	off := int64(r.ByteOffset())
	for k := range lanes {
		end := int64(len(data)) // the last lane runs to the end of the blob
		if k < numLanes-1 {
			end = off + int64(laneLen[k])
		}
		if end < off || end > int64(len(data)) {
			return lanes, ErrCorrupt
		}
		lanes[k] = lane{bit: int(off) * 8, end: int(end)}
		lanes[k].at, lanes[k].stop = laneBounds(n, k)
		off = end
	}
	return lanes, nil
}

// DecodeLanesInto reverses EncodeLanes, decoding into dst when its
// capacity suffices (dst may be nil; the result aliases dst when reused).
// Small streams decode on the calling goroutine, two lanes at a time in
// lockstep; streams of at least laneParallelMin symbols hand lanes to
// parallel.For when workers > 1. alphabet must match the encoder's.
func DecodeLanesInto(dst []uint16, data []byte, alphabet, workers int) ([]uint16, error) {
	out, d, laneData, err := decodeLanesHeader(dst, data, alphabet)
	if err != nil {
		return nil, err
	}
	defer releaseDecoder(d)
	nn := len(out)
	if nn == 0 {
		return out, nil
	}
	d.build(nn)
	// Parallel decode pays only when the stream amortizes the goroutine
	// handoff and the runtime has cores to run lanes on.
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && nn >= laneParallelMin {
		// The closure must capture a branch-local copy: capturing laneData
		// itself would force it to the heap on the (allocation-free)
		// single-goroutine path below too.
		lanes := laneData
		var errs [numLanes]error
		if workers < numLanes {
			// Fewer workers than lanes: a lockstep pair each beats two
			// single lanes in turn.
			parallel.For(numLanes/2, workers, func(t int) {
				_, _, errs[t] = d.decodeLanePair(data, out, lanes[2*t], lanes[2*t+1])
			})
		} else {
			parallel.For(numLanes, workers, func(k int) {
				_, errs[k] = d.decodeLane(data, out, lanes[k])
			})
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}

	if err := d.decodeLanes(data, out, laneData[:]); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeLanesRange decodes the symbols [lo, hi) of an EncodeLanes stream,
// using the lane directory as the random-access index it is: a lane starts
// at a known byte and a known symbol, so lanes that end before lo or start
// at or after hi are skipped, and the last touched lane stops at hi. The
// result has the stream's full length, like DecodeLanesInto's (dst reused
// when its capacity suffices), but only out[lo:hi] is guaranteed decoded;
// the rest keeps whatever dst held, except that a touched lane decodes
// from its start. decoded reports how many symbols were actually decoded.
// [lo, hi) is clamped to the stream. The touched lanes decode on the
// calling goroutine, as in DecodeLanesInto with one worker.
func DecodeLanesRange(dst []uint16, data []byte, alphabet, lo, hi int) (out []uint16, decoded int, err error) {
	out, d, lanes, err := decodeLanesHeader(dst, data, alphabet)
	if err != nil {
		return nil, 0, err
	}
	defer releaseDecoder(d)
	n := len(out)
	lo, hi = max(lo, 0), min(hi, n)
	if lo >= hi {
		return out, 0, nil
	}
	var touched [numLanes]lane
	t := 0
	for _, ln := range lanes {
		ln.stop = min(ln.stop, hi)
		if ln.stop > lo && ln.at < ln.stop {
			touched[t] = ln
			t++
			decoded += ln.stop - ln.at
		}
	}
	d.build(decoded)
	if err := d.decodeLanes(data, out, touched[:t]); err != nil {
		return nil, 0, err
	}
	return out, decoded, nil
}

// decodeLanes decodes the given lanes of b into out on the calling
// goroutine: two at a time in lockstep, an odd one alone.
func (d *decoder) decodeLanes(b []byte, out []uint16, lanes []lane) error {
	for ; len(lanes) >= 2; lanes = lanes[2:] {
		if _, _, err := d.decodeLanePair(b, out, lanes[0], lanes[1]); err != nil {
			return err
		}
	}
	if len(lanes) == 1 {
		_, err := d.decodeLane(b, out, lanes[0])
		return err
	}
	return nil
}

// peek returns the 64 bits of b that start at bit, LSB first, of which the
// low 57 at least are the stream's: the caller guarantees bit>>3+8 <= len(b).
func peek(b []byte, bit int) uint64 {
	return binary.LittleEndian.Uint64(b[bit>>3:]) >> (bit & 7)
}

// store4 stores the four symbol slots of a table entry at the head of out
// (one 8-byte store), whatever the entry's count: the slots past it are
// rewritten by the next lookup, and the callers keep four slots in hand.
func store4(out []uint16, syms uint64) {
	*(*[4]uint16)(out) = [4]uint16{uint16(syms), uint16(syms >> 16), uint16(syms >> 32), uint16(syms >> 48)}
}

// decodeLanePair decodes two lanes in lockstep, so the CPU overlaps the
// table loads and shifts of two independent bit-serial chains; two is what
// keeps both lanes' state (accumulator, bit cursor, output cursor) in
// registers. One check per round covers a batch of 57/need lookups per
// lane: a peek holds >= 57 of the lane's bits, a lookup consumes at most
// need of them and retires at most four symbols. A lookup that misses the
// table ends the round early and is resolved by slowWalk outside the hot
// loop. When either lane can no longer promise a whole round — fewer than
// 8 bytes to peek at, or fewer than 4·batch symbols to go — both continue
// on decodeLane from where they stand. It returns the bit each lane's last
// symbol ended at.
func (d *decoder) decodeLanePair(b []byte, out []uint16, l0, l1 lane) (end0, end1 int, err error) {
	bit0, i0, bit1, i1 := l0.bit, l0.at, l1.bit, l1.at
	batch := 57 / int(d.need)
	for bit0>>3+8 <= l0.end && bit1>>3+8 <= l1.end && i0+4*batch <= l0.stop && i1+4*batch <= l1.stop {
		a0, a1 := peek(b, bit0), peek(b, bit1)
		missed := -1 // the lane whose lookup missed the table, if one did
		for j := 0; j < batch; j++ {
			v := a0 & (tableEntries - 1)
			m := uint(d.meta[v])
			if m&15 == 0 {
				missed = 0
				break
			}
			s := d.syms[v]
			store4(out[i0:], s)
			a0 >>= m & 15
			bit0 += int(m & 15)
			i0 += int(m >> 4)
			v = a1 & (tableEntries - 1)
			m = uint(d.meta[v])
			if m&15 == 0 {
				missed = 1
				break
			}
			s = d.syms[v]
			store4(out[i1:], s)
			a1 >>= m & 15
			bit1 += int(m & 15)
			i1 += int(m >> 4)
		}
		// The lane that missed made fewer than batch lookups this round, so
		// its accumulator still holds the need bits slowWalk may read; the
		// other lane's may not, and waits for the next round.
		switch missed {
		case 0:
			sym, l, ok := d.slowWalk(a0, tableBits)
			if !ok {
				return 0, 0, ErrCorrupt
			}
			out[i0] = sym
			bit0 += int(l)
			i0++
		case 1:
			sym, l, ok := d.slowWalk(a1, tableBits)
			if !ok {
				return 0, 0, ErrCorrupt
			}
			out[i1] = sym
			bit1 += int(l)
			i1++
		}
	}
	l0.bit, l0.at, l1.bit, l1.at = bit0, i0, bit1, i1
	if end0, err = d.decodeLane(b, out, l0); err != nil {
		return 0, 0, err
	}
	end1, err = d.decodeLane(b, out, l1)
	return end0, end1, err
}

// decodeLane decodes the symbols of lane ln: the one-lane form of
// decodeLanePair's loop, except that a round lasts until fewer than need of
// the peeked bits are left instead of a fixed 57/need lookups — a table
// whose rarest code is 25 bits long still takes four typical lookups per
// peek, not two. It hands over to finishLane as soon as a lookup could read
// past the lane's bytes (fewer than 8 to peek at) or its four stores could
// write past the lane's symbols. It returns the bit the lane's last symbol
// ended at.
func (d *decoder) decodeLane(b []byte, out []uint16, ln lane) (int, error) {
	bit, i := ln.bit, ln.at
	for i+4 <= ln.stop && bit>>3+8 <= ln.end {
		acc := peek(b, bit)
		// The peeked word ends at the byte boundary 64 bits on: a lookup is
		// safe while need bits fit before it.
		for last := bit&^7 + 64 - int(d.need); bit <= last && i+4 <= ln.stop; {
			v := acc & (tableEntries - 1)
			m := uint(d.meta[v])
			if m&15 == 0 {
				sym, l, ok := d.slowWalk(acc, tableBits)
				if !ok {
					return 0, ErrCorrupt
				}
				out[i] = sym
				acc >>= l
				bit += int(l)
				i++
				continue
			}
			s := d.syms[v]
			store4(out[i:], s)
			acc >>= m & 15
			bit += int(m & 15)
			i += int(m >> 4)
		}
	}
	ln.bit, ln.at = bit, i
	return d.finishLane(b, out, ln)
}

// finishLane decodes the symbols of lane ln on the fully checked path:
// byte-granular refill and an explicit bit and symbol budget, so it is safe
// up to the last bit of the lane. A table entry is taken whole when the
// bits it consumes are all valid and the symbols it retires are all wanted
// — its symbols were decoded from those bits alone; otherwise slowWalk
// decodes the one next symbol. It returns the bit the lane's last symbol
// ended at.
func (d *decoder) finishLane(b []byte, out []uint16, ln lane) (int, error) {
	p := ln.bit >> 3
	var acc uint64
	var navl uint
	if skip := uint(ln.bit & 7); skip != 0 {
		// The cursor got inside byte p by reading it: p < ln.end.
		acc, navl, p = uint64(b[p])>>skip, 8-skip, p+1
	}
	for c := ln.at; c < ln.stop; {
		for navl <= 56 && p < ln.end {
			acc |= uint64(b[p]) << navl
			p++
			navl += 8
		}
		v := acc & (tableEntries - 1)
		m := uint(d.meta[v])
		l, count := m&15, int(m>>4)
		if l == 0 || l > navl || c+count > ln.stop {
			var skip uint8
			if l == 0 {
				skip = tableBits // the miss rules out every code the window could hold
			}
			sym, sl, ok := d.slowWalk(acc, skip)
			if !ok || sl > navl {
				return 0, ErrCorrupt
			}
			out[c], l, count = sym, sl, 1
		} else {
			for s, k := d.syms[v], 0; k < count; k++ {
				out[c+k] = uint16(s)
				s >>= 16
			}
		}
		acc >>= l
		navl -= l
		c += count
	}
	return 8*p - int(navl), nil
}
