package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"

	"stz/internal/bitio"
	"stz/internal/scratch"
)

// laneHist is the encoder's histogram: one counter per symbol and lane.
// The symbols of a stream are counted four at a time, one from each lane, so
// neighbouring increments never touch the same counter — a run of equal
// codes, which a good predictor produces, would otherwise chain every
// increment to the store before it — and the per-lane counts are what places
// the lanes before a bit of them is written. mark[b] says block b (the 64
// symbols from 64·b) may hold a non-zero counter, so finding the symbols
// present costs the blocks touched, not the 1 MB table. Histograms recycle
// through histPool and are handed back all zero: collect clears what
// it reads, and nothing else is ever set.
//
// No counter can wrap: codec.CheckDims caps a grid, and so a stream, at 2³³
// symbols, and a lane (or a quarter of a v1 stream) at 2³¹.
type laneHist struct {
	count [1 << 16][numLanes]uint32
	mark  [1 << 10]bool
}

var histPool = sync.Pool{New: func() any { return new(laneHist) }}

// add counts codes, lane k's symbols into count[·][k].
func (h *laneHist) add(codes []uint16) {
	n := len(codes)
	q := n / numLanes // every lane holds q symbols or q+1
	// The lanes' first q symbols, sliced to one length so the loop below
	// indexes all four without bounds checks; the offsets are laneBounds'.
	s0, s1, s2, s3 := codes[:q], codes[n/4:][:q], codes[n/2:][:q], codes[3*n/4:][:q]
	for i := range s0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		h.mark[c0>>6] = true
		h.count[c0][0]++
		h.mark[c1>>6] = true
		h.count[c1][1]++
		h.mark[c2>>6] = true
		h.count[c2][2]++
		h.mark[c3>>6] = true
		h.count[c3][3]++
	}
	for k := 0; k < numLanes; k++ {
		if lo, hi := laneBounds(n, k); hi-lo > q {
			c := codes[hi-1]
			h.mark[c>>6] = true
			h.count[c][k]++
		}
	}
}

// laneOut places one lane of a planned blob: the symbols it codes, the bit
// it starts at and the byte it ends before.
type laneOut struct {
	lo, hi   int
	bit, end int
}

// plan is an encode with every byte placed and no payload byte written: the
// stream is histogrammed, its code table built, and the header, the lane
// directory and each lane's offset and length are known, so the blob is
// allocated once, at its exact size, and the lanes are written straight
// into it. Each lane stores only into its own bytes, so lanes may be written
// concurrently. The planned codes must not change until the lanes are
// written. Plans recycle through a pool: release one when its lanes are
// written, and do not use it afterwards.
type plan struct {
	buildScratch
	codes []uint16
	// head is everything ahead of the payload: symbol count and code-length
	// table, then — lane layout — the byte-aligned directory. The v1 layout
	// has no directory and its one lane starts at head's last, partial byte.
	headw  bitio.Writer
	head   []byte
	lanes  [numLanes]laneOut
	nl     int // lanes in use: numLanes, or the v1 layout's one
	size   int
	packed []uint64 // packed[i] = code<<8 | len of table[i], the code in transmitted order
}

var planPool = sync.Pool{New: func() any { return new(plan) }}

// newPlan plans the blob of codes in lanes lanes: numLanes for EncodeLanes'
// layout, 1 for Encode's. All values must be < alphabet.
func newPlan(codes []uint16, alphabet, lanes int) *plan {
	p := planPool.Get().(*plan)
	p.codes = codes
	h := histPool.Get().(*laneHist)
	h.add(codes)
	p.collect(h, alphabet)
	histPool.Put(h)
	p.codeLengths()

	// The bits of every lane, from the counts as they were (depth limiting
	// flattens p.counts, not these).
	var laneBits [numLanes]int
	for i, e := range p.table {
		for k, c := range p.laneCounts[i] {
			laneBits[k] += int(c) * int(e.len)
		}
	}

	n := len(codes)
	w := &p.headw
	w.Reset()
	w.WriteGamma(uint64(n))
	writeLengths(w, p.table)
	p.nl = lanes
	if lanes == 1 {
		bit := w.BitLen()
		p.size = (bit + laneBits[0] + laneBits[1] + laneBits[2] + laneBits[3] + 7) / 8
		p.lanes[0] = laneOut{lo: 0, hi: n, bit: bit, end: p.size}
	} else {
		// Byte-aligned lane directory: the byte length of every lane but the
		// last (which runs to the end of the blob), 40 bits each so a lane of
		// a maximum-size grid cannot overflow the field.
		w.AlignByte()
		for _, b := range laneBits[:numLanes-1] {
			w.WriteBits(uint64(b+7)/8, 40)
		}
		off := w.BitLen() / 8
		for k := range p.lanes {
			lo, hi := laneBounds(n, k)
			end := off + (laneBits[k]+7)/8
			p.lanes[k] = laneOut{lo: lo, hi: hi, bit: 8 * off, end: end}
			off = end
		}
		p.size = off
	}
	p.head = w.Bytes()

	p.packed = packCodes(p.table, p.packed[:0])
	return p
}

// collect moves the histogram into p.table (the symbols present, ascending),
// p.counts and p.laneCounts, and zeroes every counter and mark it read, so
// h goes back to its pool clean. It panics on a symbol outside the alphabet:
// the caller broke the encoder's contract, and the blob would not decode.
func (p *buildScratch) collect(h *laneHist, alphabet int) {
	p.table, p.counts, p.laneCounts = p.table[:0], p.counts[:0], p.laneCounts[:0]
	for b, marked := range h.mark {
		if !marked {
			continue
		}
		h.mark[b] = false
		for sym := b << 6; sym < (b+1)<<6; sym++ {
			c := &h.count[sym]
			total := uint64(c[0]) + uint64(c[1]) + uint64(c[2]) + uint64(c[3])
			if total == 0 {
				continue
			}
			if sym >= alphabet {
				panic(fmt.Sprintf("huffman: symbol %d outside alphabet %d", sym, alphabet))
			}
			p.table = append(p.table, symLen{sym: uint16(sym)})
			p.counts = append(p.counts, total)
			p.laneCounts = append(p.laneCounts, *c)
			*c = [numLanes]uint32{}
		}
	}
}

// release hands the plan's buffers back. The plan must not be used again.
func (p *plan) release() {
	p.codes = nil
	planPool.Put(p)
}

// writeLanes writes the lanes [from, to) of the planned blob into dst, which
// must hold p.size bytes: each lane's codes go straight to their final
// offset, and lane 0 also stores what precedes the payload. Lanes own
// disjoint bytes of dst, so calls for disjoint ranges may run concurrently.
// The code table is spread over the whole symbol range first — a dirty
// scratch.U64 lease set at the present symbols, the only ones looked up —
// so the loops index it by the symbol alone, with no bounds to check.
func (p *plan) writeLanes(dst []byte, from, to int) {
	dst = dst[:p.size]
	if from == 0 {
		copy(dst, p.head)
	}
	lease := scratch.U64.Lease(1 << 16)
	bySym := (*[1 << 16]uint64)(lease)
	for i, e := range p.table {
		bySym[e.sym] = p.packed[i]
	}
	for _, ln := range p.lanes[from:to] {
		writeLane(dst[:ln.end], p.codes[ln.lo:ln.hi], bySym, ln.bit)
	}
	scratch.U64.Release(lease)
}

// writeLane codes the symbols of one lane into the bytes of lane from bit
// on, and returns the byte the lane's bits end before. The slice must hold
// them all; it may hold more.
func writeLane(lane []byte, codes []uint16, bySym *[1 << 16]uint64, bit int) int {
	// The bits held back from the lane: fewer than 8 between stores, at the
	// start those of the byte a v1 lane shares with the header.
	pos, nbits := bit>>3, uint(bit&7)
	var acc uint64
	if nbits != 0 {
		acc = uint64(lane[pos])
	}
	for i := 0; i < len(codes); {
		// Three codes a store, while the lane has three to give and 8 bytes
		// to take: the codes are joined off the accumulator's dependency
		// chain, which then runs once per store, not per symbol. The 7 bits
		// held back leave a store room for 57; three codes longer than that
		// together — long codes are the rare symbols' — leave the loop.
		for ; i < len(codes)-2 && pos+8 <= len(lane); i += 3 {
			e0, e1, e2 := bySym[codes[i]], bySym[codes[i+1]], bySym[codes[i+2]]
			l0, l1 := uint(e0&63), uint(e1&63)
			total := l0 + l1 + uint(e2&63)
			if total > 57 {
				break
			}
			acc |= (e0>>8 | e1>>8<<l0 | e2>>8<<((l0+l1)&63)) << (nbits & 63)
			nbits += total
			binary.LittleEndian.PutUint64(lane[pos:pos+8], acc)
			pos += int(nbits >> 3)
			acc >>= nbits &^ 7 // all 64 when the store was full
			nbits &= 7
		}
		// One code a store for the three that did not fit, or — a byte at a
		// time once fewer than 8 bytes are left — for the lane's tail.
		for stop := min(i+3, len(codes)); i < stop; i++ {
			e := bySym[codes[i]]
			acc |= e >> 8 << (nbits & 63)
			nbits += uint(e & 63)
			if pos+8 <= len(lane) {
				binary.LittleEndian.PutUint64(lane[pos:pos+8], acc)
				pos += int(nbits >> 3)
				acc >>= nbits &^ 7 & 63
				nbits &= 7
				continue
			}
			for ; nbits >= 8; nbits -= 8 {
				lane[pos] = byte(acc)
				pos++
				acc >>= 8
			}
		}
	}
	if nbits != 0 {
		lane[pos] = byte(acc)
		pos++
	}
	return pos
}

// Encode compresses codes (all values must be < alphabet) into a
// self-describing byte stream: symbol count, code-length table, payload.
// This is the v1 single-stream layout — the plan with one lane, which
// starts where the header ends; new archive formats use EncodeLanes.
func Encode(codes []uint16, alphabet int) []byte {
	return newPlan(codes, alphabet, 1).encode()
}

// EncodeLanes compresses codes into the v2 multi-lane payload: the shared
// header (symbol count + one code-length table) is followed by a
// byte-aligned lane directory and numLanes independent bitstreams, lane k
// holding the contiguous segment laneBounds(n, k). Splitting the payload
// breaks the decoder's single bit-serial dependency chain — the lanes
// decode two at a time in lockstep on one goroutine (hiding table-load
// latency behind two independent chains) or on parallel.For workers for
// large streams. The blob is planned before it is written (plan), so the
// directory is known ahead of the lanes and the buffer is allocated once, at
// its exact size. All values must be < alphabet.
func EncodeLanes(codes []uint16, alphabet int) []byte {
	return newPlan(codes, alphabet, numLanes).encode()
}

// encode writes every lane of p into a fresh buffer and releases p.
func (p *plan) encode() []byte {
	out := make([]byte, p.size)
	p.writeLanes(out, 0, p.nl)
	p.release()
	return out
}
