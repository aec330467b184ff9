// Package huffman implements a canonical Huffman codec over 16-bit symbols.
//
// It is the lossless-encoding stage shared by the SZ3 baseline, the STZ
// core, and the MGARD-lite and SPERR-lite baselines: quantization codes are
// histogrammed, a depth-limited canonical code is built, and the code-length
// table is serialized ahead of the bitstream so each sub-block stream is
// self-describing and independently decodable.
//
// The encoder and decoder are allocation-free in steady state: histograms,
// tree nodes, the heap, the packed code table and the decoder state all
// recycle through scratch arenas and local sync.Pools (the former
// container/heap implementation boxed every node index into an interface,
// which dominated whole-pipeline allocs/op).
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"stz/internal/bitio"
	"stz/internal/parallel"
	"stz/internal/scratch"
)

const (
	maxCodeLen = 31 // longest admissible code, fits the 5-bit length field
	fastBits   = 10 // width of the table-driven decode fast path

	// numLanes is the lane count of the v2 multi-stream payload: the symbol
	// stream is split into numLanes near-equal contiguous segments, each
	// encoded as an independent bitstream over one shared code table.
	numLanes = 4
	// laneParallelMin is the symbol count from which DecodeLanesInto hands
	// whole lanes to parallel.For workers instead of interleaving them on
	// the calling goroutine (below it, goroutine overhead dominates).
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

// buildScratch is the reusable encoder-side state: the present-symbol table
// with its counts, the node arena and the index heap. It avoids the per-node
// interface boxing of container/heap and recycles the backing arrays across
// encodes.
type buildScratch struct {
	table  []symLen // present symbols, ascending; lengths set by codeLengths
	counts []uint64 // parallel to table; flattened in place when depth-limiting
	nodes  []treeNode
	heap   []int32
	stack  []int32 // iterative depth walk, node indices
	depth  []uint8 // parallel to stack
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// nodeLess orders heap entries by (count, insertion order) — a strict total
// order, so the pop sequence (and therefore the code table) is identical to
// the previous container/heap implementation.
func nodeLess(nodes []treeNode, a, b int32) bool {
	na, nb := &nodes[a], &nodes[b]
	if na.count != nb.count {
		return na.count < nb.count
	}
	return na.order < nb.order
}

func (bs *buildScratch) heapInit() {
	n := len(bs.heap)
	for i := n/2 - 1; i >= 0; i-- {
		bs.siftDown(i)
	}
}

func (bs *buildScratch) heapPush(v int32) {
	bs.heap = append(bs.heap, v)
	i := len(bs.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(bs.nodes, bs.heap[i], bs.heap[parent]) {
			break
		}
		bs.heap[i], bs.heap[parent] = bs.heap[parent], bs.heap[i]
		i = parent
	}
}

func (bs *buildScratch) heapPop() int32 {
	h := bs.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	bs.heap = h[:last]
	if last > 0 {
		bs.siftDown(0)
	}
	return top
}

func (bs *buildScratch) siftDown(i int) {
	h := bs.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && nodeLess(bs.nodes, h[r], h[l]) {
			small = r
		}
		if !nodeLess(bs.nodes, h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// collect gathers the symbols hist counts at least once, in ascending
// order, into bs.table and bs.counts. This is the encoder's one pass over
// the alphabet; the tree build, the table serialization and the code
// packing all run over the collected list.
func (bs *buildScratch) collect(hist []uint64) {
	bs.table, bs.counts = bs.table[:0], bs.counts[:0]
	for sym, c := range hist {
		if c > 0 {
			bs.table = append(bs.table, symLen{sym: uint16(sym)})
			bs.counts = append(bs.counts, c)
		}
	}
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
	heap := bs.heap[:0]
	if cap(heap) < present {
		heap = make([]int32, 0, present)
	}
	for i, c := range bs.counts {
		nodes = append(nodes, treeNode{count: c, order: int32(i), left: -1, right: -1})
		heap = append(heap, int32(i))
	}
	bs.nodes, bs.heap = nodes, heap
	bs.heapInit()
	for len(bs.heap) > 1 {
		a := bs.heapPop()
		b := bs.heapPop()
		bs.nodes = append(bs.nodes, treeNode{
			count: bs.nodes[a].count + bs.nodes[b].count,
			order: int32(len(bs.nodes)),
			left:  a, right: b,
		})
		bs.heapPush(int32(len(bs.nodes) - 1))
	}
	root := bs.heap[0]
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
// Decoders recycle through decoderPool; all slice fields keep their backing
// arrays across uses.
type decoder struct {
	// table holds the (symbol, length) pairs exactly as readTable parses
	// them off the wire; every derived table below is built from this list.
	table  []symLen
	maxLen uint8
	// fast path: index by the next fastBits bits (transmitted-order, i.e.
	// reversed), value packs symbol<<8 | length; length 0 = slow path.
	fast []uint32
	// slow path canonical walk tables.
	firstCode  [maxCodeLen + 1]uint32
	firstIndex [maxCodeLen + 1]uint32
	blCount    [maxCodeLen + 1]uint32
	symByOrder []uint16
}

var decoderPool = sync.Pool{
	New: func() any { return &decoder{fast: make([]uint32, 1<<fastBits)} },
}

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

// build derives the canonical walk tables and the fast table from d.table.
func (d *decoder) build() {
	d.blCount, d.firstCode, d.maxLen = firstCodes(d.table)
	var index uint32
	for l := range d.firstIndex {
		d.firstIndex[l] = index
		index += d.blCount[l]
	}
	if cap(d.symByOrder) < len(d.table) {
		d.symByOrder = make([]uint16, len(d.table))
	}
	d.symByOrder = d.symByOrder[:len(d.table)]
	// Symbols in canonical order, by (length, symbol), and the fast table;
	// canonical codes are derived on the fly so decoding never needs a
	// per-symbol code array. Stale fast entries from the previous use are
	// cleared first so they can never alias into this table.
	clear(d.fast)
	nextIdx, nextCode := d.firstIndex, d.firstCode
	for _, e := range d.table {
		l := e.len
		d.symByOrder[nextIdx[l]] = e.sym
		nextIdx[l]++
		code := nextCode[l]
		nextCode[l]++
		if l > fastBits {
			continue
		}
		step := uint32(1) << l
		for v := reverseBits(code, l); v < 1<<fastBits; v += step {
			d.fast[v] = uint32(e.sym)<<8 | uint32(l)
		}
	}
}

// slowWalk canonically decodes one symbol from the peeked word v (LSB =
// next transmitted bit) without the fast table, one code length at a time.
// Returns ok=false when no code matches within maxLen bits.
func (d *decoder) slowWalk(v uint64) (sym uint16, length uint, ok bool) {
	var code uint32
	for l := uint8(1); l <= d.maxLen; l++ {
		code = code<<1 | uint32(v&1)
		v >>= 1
		cnt := d.blCount[l]
		if cnt > 0 && code >= d.firstCode[l] && code < d.firstCode[l]+cnt {
			return d.symByOrder[d.firstIndex[l]+code-d.firstCode[l]], uint(l), true
		}
	}
	return 0, 0, false
}

// packTable derives the canonical codes of table and packs the
// transmitted-order (bit-reversed) code and length of every present symbol
// into packed[sym] = code<<8 | len, so the encode hot loop is one table
// load per symbol. Entries of absent symbols are left untouched.
func packTable(table []symLen, packed []uint64) {
	_, nextCode, _ := firstCodes(table)
	for _, e := range table {
		packed[e.sym] = uint64(reverseBits(nextCode[e.len], e.len))<<8 | uint64(e.len)
		nextCode[e.len]++
	}
}

// encodeHeader runs the shared encoder prologue: histogram the symbols,
// collect the ones present, build the depth-limited code over that list and
// emit the self-describing header (symbol count + code-length table) into a
// fresh writer. The histogram and the lengths give the payload's exact bit
// count, so the writer is sized once for the whole stream — header, lane
// directory, padding and the 8-byte store overhang bitio.WriteSymbols
// needs included. It returns the writer and the leased packed (code,len)
// table — the histogram buffer, overwritten in place at the present
// symbols — which the caller must hand back to scratch.U64 after writing
// the payload.
func encodeHeader(codes []uint16, alphabet int) (*bitio.Writer, []uint64) {
	hist := scratch.U64.LeaseZeroed(alphabet)
	for _, c := range codes {
		hist[c]++
	}
	bs := buildPool.Get().(*buildScratch)
	bs.collect(hist)
	bs.codeLengths()
	payloadBits := 0
	for _, e := range bs.table {
		payloadBits += int(hist[e.sym]) * int(e.len)
	}

	// The two counts take under 24 bytes, a table entry under 5.
	w := bitio.NewWriter(64 + 5*len(bs.table) + payloadBits/8)
	w.WriteGamma(uint64(len(codes)))
	writeLengths(w, bs.table)
	packTable(bs.table, hist)
	buildPool.Put(bs)
	return w, hist
}

// Encode compresses codes (all values must be < alphabet) into a
// self-describing byte stream: symbol count, code-length table, payload.
// This is the v1 single-stream layout; new archive formats use EncodeLanes.
func Encode(codes []uint16, alphabet int) []byte {
	w, packed := encodeHeader(codes, alphabet)
	w.WriteSymbols(codes, packed)
	scratch.U64.Release(packed)
	return w.Bytes()
}

// laneBounds returns lane k's symbol range [lo, hi): numLanes near-equal
// contiguous segments of an n-symbol stream.
func laneBounds(n, k int) (lo, hi int) {
	return k * n / numLanes, (k + 1) * n / numLanes
}

// EncodeLanes compresses codes into the v2 multi-lane payload: the shared
// header (symbol count + one code-length table) is followed by a
// byte-aligned lane directory and numLanes independent bitstreams, lane k
// holding the contiguous segment laneBounds(n, k). Splitting the payload
// breaks the decoder's single bit-serial dependency chain — the lanes
// decode interleaved on one goroutine (hiding table-load latency behind
// four independent chains) or on parallel.For workers for large streams.
// All values must be < alphabet.
func EncodeLanes(codes []uint16, alphabet int) []byte {
	w, packed := encodeHeader(codes, alphabet)

	// Byte-aligned lane directory: the byte length of every lane but the
	// last (which runs to the end of the blob), 40 bits each so a lane of a
	// maximum-size grid cannot overflow the field. The directory is written
	// as placeholder zeros and backpatched after the lanes are encoded —
	// the entries sit at byte-aligned fixed offsets, so this costs a 15-byte
	// rewrite instead of a second pass over 3/4 of the symbols.
	n := len(codes)
	w.AlignByte()
	dirOff := w.BitLen() / 8
	var dir [(numLanes - 1) * 5]byte
	w.WriteBytes(dir[:])
	var laneLen [numLanes - 1]uint64
	for k := 0; k < numLanes; k++ {
		lo, hi := laneBounds(n, k)
		start := w.BitLen() / 8
		w.WriteSymbols(codes[lo:hi], packed)
		w.AlignByte()
		if k < numLanes-1 {
			laneLen[k] = uint64(w.BitLen()/8 - start)
		}
	}
	scratch.U64.Release(packed)
	out := w.Bytes()
	// A 40-bit WriteBits at a byte boundary is 5 little-endian bytes.
	for k, l := range laneLen {
		for b := 0; b < 5; b++ {
			out[dirOff+5*k+b] = byte(l >> (8 * b))
		}
	}
	return out
}

// Decode reverses Encode. alphabet must match the encoder's.
func Decode(data []byte, alphabet int) ([]uint16, error) {
	return DecodeInto(nil, data, alphabet)
}

// decodeHeader runs the shared decoder prologue: read the symbol count,
// sanity-check it, lease a decoder, read + validate the code-length table
// and build the decode tables from it. On success the reader is positioned
// at the first payload bit and the caller owns the leased decoder
// (releaseDecoder) and the returned output slice (dst reused when its
// capacity suffices).
func decodeHeader(r *bitio.Reader, dst []uint16, data []byte, alphabet int) ([]uint16, *decoder, error) {
	r.Reset(data)
	n, err := r.ReadGamma()
	if err != nil {
		return nil, nil, err
	}
	const maxReasonable = 1 << 34
	// Every symbol costs at least one payload bit, so a count beyond the
	// blob's bit length is structurally impossible — reject it before the
	// output allocation, or a dozen corrupt bytes could demand gigabytes.
	if n > maxReasonable || n > uint64(len(data))*8 {
		return nil, nil, ErrCorrupt
	}
	d := decoderPool.Get().(*decoder)
	if err := d.readTable(r, alphabet); err != nil {
		releaseDecoder(d)
		return nil, nil, err
	}
	d.build()
	var out []uint16
	if uint64(cap(dst)) >= n {
		out = dst[:n]
	} else {
		out = make([]uint16, n)
	}
	return out, d, nil
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
	// The payload starts at the header's last bit, mid-byte: enter the lane
	// decoder with that byte's remaining bits already loaded.
	bit := len(data)*8 - r.BitsRemaining()
	lr := laneReader{buf: data[bit/8:]}
	if used := uint(bit % 8); used != 0 {
		lr.acc, lr.navl, lr.pos = uint64(lr.buf[0])>>used, 8-used, 1
	}
	if err := d.decodeLane(lr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeLanesHeader is the prologue the lane decoders share: decodeHeader,
// then the lane directory. An empty stream (len(out) == 0) has no directory
// and no lanes.
func decodeLanesHeader(dst []uint16, data []byte, alphabet int) (out []uint16, d *decoder, lanes [numLanes][]byte, err error) {
	var r bitio.Reader
	if out, d, err = decodeHeader(&r, dst, data, alphabet); err != nil || len(out) == 0 {
		return out, d, lanes, err
	}
	if d.maxLen == 0 {
		err = ErrCorrupt // n > 0 but the table codes nothing
	} else {
		lanes, err = splitLanes(&r, data)
	}
	if err != nil {
		releaseDecoder(d)
		return nil, nil, lanes, err
	}
	return out, d, lanes, nil
}

// splitLanes reads the byte-aligned lane directory at r's position in data
// and resolves it into the byte range of every lane.
func splitLanes(r *bitio.Reader, data []byte) (lanes [numLanes][]byte, err error) {
	r.AlignByte()
	var laneLen [numLanes - 1]uint64
	for k := range laneLen {
		if laneLen[k], err = r.ReadBits(40); err != nil {
			return lanes, err
		}
	}
	off := int64(r.ByteOffset())
	for k := range laneLen {
		end := off + int64(laneLen[k])
		if end < off || end > int64(len(data)) {
			return lanes, ErrCorrupt
		}
		lanes[k] = data[off:end]
		off = end
	}
	lanes[numLanes-1] = data[off:]
	return lanes, nil
}

// DecodeLanesInto reverses EncodeLanes, decoding into dst when its
// capacity suffices (dst may be nil; the result aliases dst when reused).
// Small streams interleave the numLanes lanes on the calling goroutine —
// one refill-amortized batch per lane per round, so the CPU always has
// numLanes independent decode chains in flight; streams of at least
// laneParallelMin symbols hand whole lanes to parallel.For when workers >
// 1. alphabet must match the encoder's.
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
	// Whole-lane parallel decode pays only when the stream is large enough
	// to amortize goroutine handoff and the runtime actually has cores to
	// run lanes on; otherwise the register-resident interleave below is
	// strictly faster.
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && nn >= laneParallelMin {
		// The closure must capture a branch-local copy: capturing laneData
		// itself would force it to the heap on the (allocation-free)
		// interleaved path below too.
		lanes := laneData
		var errs [numLanes]error
		parallel.For(numLanes, workers, func(k int) {
			lo, hi := laneBounds(nn, k)
			errs[k] = d.decodeLane(laneReader{buf: lanes[k]}, out[lo:hi])
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}

	if err := d.decodeLanesInterleaved(&laneData, out, nn); err != nil {
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
// [lo, hi) is clamped to the stream; the whole stream takes the
// interleaved path of DecodeLanesInto.
func DecodeLanesRange(dst []uint16, data []byte, alphabet, lo, hi int) (out []uint16, decoded int, err error) {
	out, d, lanes, err := decodeLanesHeader(dst, data, alphabet)
	if err != nil {
		return nil, 0, err
	}
	defer releaseDecoder(d)
	n := len(out)
	lo, hi = max(lo, 0), min(hi, n)
	if lo == 0 && hi == n && n > 0 {
		if err := d.decodeLanesInterleaved(&lanes, out, n); err != nil {
			return nil, 0, err
		}
		return out, n, nil
	}
	for k := range lanes {
		start, end := laneBounds(n, k)
		end = min(end, hi)
		if end <= lo || start >= end {
			continue
		}
		if err := d.decodeLane(laneReader{buf: lanes[k]}, out[start:end]); err != nil {
			return nil, 0, err
		}
		decoded += end - start
	}
	return out, decoded, nil
}

// laneReader is the bit-reader state of one lane: LSB-first accumulator,
// valid-bit count and byte cursor, as in bitio.Reader but held by value so
// the decode loops keep it in registers.
type laneReader struct {
	buf  []byte
	acc  uint64
	navl uint
	pos  int
}

// decodeLane decodes len(out) symbols from r. While the lane holds a full
// word to refill from, symbols decode on the unchecked fast path — the
// single-chain form of decodeLanesInterleaved's loop, except that a refill
// (>= 56 valid bits) lasts until fewer than maxLen bits are left instead of
// a fixed 56/maxLen symbols: a table whose rarest code is 25 bits long
// still decodes a dozen typical 3-bit symbols per refill, not two. The
// sub-word tail finishes on finishLane.
func (d *decoder) decodeLane(r laneReader, out []uint16) error {
	b, acc, navl, p, fast := r.buf, r.acc, r.navl, r.pos, d.fast
	i, maxLen := 0, uint(d.maxLen)
	for i < len(out) && p+8 <= len(b) && maxLen > 0 {
		// Refill to >= 56 valid bits (see Reader.Refill).
		acc |= binary.LittleEndian.Uint64(b[p:]) << navl
		adv := (63 - navl) >> 3
		p += int(adv)
		navl += adv * 8
		acc &= 1<<navl - 1
		for ; navl >= maxLen && i < len(out); i++ {
			t := fast[acc&(1<<fastBits-1)]
			l := uint(t & 0xff)
			if l == 0 {
				s, sl, ok := d.slowWalk(acc)
				if !ok {
					return ErrCorrupt
				}
				t, l = uint32(s)<<8, sl
			}
			acc >>= l
			navl -= l
			out[i] = uint16(t >> 8)
		}
	}
	return d.finishLane(laneReader{buf: b, acc: acc, navl: navl, pos: p}, out[i:])
}

// finishLane decodes len(out) symbols from r on the fully checked
// per-symbol path: byte-granular refill and an explicit bit budget, so it
// is safe up to the last bit of the lane.
func (d *decoder) finishLane(r laneReader, out []uint16) error {
	b, acc, navl, p := r.buf, r.acc, r.navl, r.pos
	for c := range out {
		for navl <= 56 && p < len(b) {
			acc |= uint64(b[p]) << navl
			p++
			navl += 8
		}
		e := d.fast[acc&(1<<fastBits-1)]
		l := uint(e & 0xff)
		sym := uint16(e >> 8)
		if l == 0 || l > navl {
			s2, l2, ok := d.slowWalk(acc)
			if !ok || l2 > navl {
				return ErrCorrupt
			}
			sym, l = s2, l2
		}
		acc >>= l
		navl -= l
		out[c] = sym
	}
	return nil
}

// decodeLanesInterleaved decodes all numLanes lanes on the calling
// goroutine in lockstep. The hot loop keeps every lane's bit-reader state
// (accumulator, valid-bit count, byte cursor) in scalar locals so the four
// decode chains stay register-resident and genuinely independent — the CPU
// overlaps the four fast-table loads the single-stream decoder would
// serialize. One bounds check per lane per refill round covers a batch of
// 56/maxLen symbols (the up-front budget: after a full-word refill each
// lane holds ≥ 56 valid bits and a symbol consumes at most maxLen). The
// ragged lane tails — and any stream too short for a full-word refill —
// finish on a fully checked per-symbol loop over the same state.
func (d *decoder) decodeLanesInterleaved(lanes *[numLanes][]byte, out []uint16, nn int) error {
	b0, b1, b2, b3 := lanes[0], lanes[1], lanes[2], lanes[3]
	var a0, a1, a2, a3 uint64
	var n0, n1, n2, n3 uint
	var p0, p1, p2, p3 int
	c0, e0 := laneBounds(nn, 0)
	c1, e1 := laneBounds(nn, 1)
	c2, e2 := laneBounds(nn, 2)
	c3, e3 := laneBounds(nn, 3)
	fast := d.fast
	batch := 56 / int(d.maxLen)
	minLen := nn / numLanes // every lane holds at least this many symbols
	for i := 0; i+batch <= minLen; i += batch {
		if p0+8 > len(b0) || p1+8 > len(b1) || p2+8 > len(b2) || p3+8 > len(b3) {
			break // some lane is in its sub-word tail
		}
		// Refill every lane to >= 56 valid bits (see Reader.Refill: only the
		// advanced-past bytes of the loaded word count as valid).
		w := binary.LittleEndian.Uint64(b0[p0:])
		a0 |= w << n0
		adv := (63 - n0) >> 3
		p0 += int(adv)
		n0 += adv * 8
		a0 &= 1<<n0 - 1
		w = binary.LittleEndian.Uint64(b1[p1:])
		a1 |= w << n1
		adv = (63 - n1) >> 3
		p1 += int(adv)
		n1 += adv * 8
		a1 &= 1<<n1 - 1
		w = binary.LittleEndian.Uint64(b2[p2:])
		a2 |= w << n2
		adv = (63 - n2) >> 3
		p2 += int(adv)
		n2 += adv * 8
		a2 &= 1<<n2 - 1
		w = binary.LittleEndian.Uint64(b3[p3:])
		a3 |= w << n3
		adv = (63 - n3) >> 3
		p3 += int(adv)
		n3 += adv * 8
		a3 &= 1<<n3 - 1
		for j := 0; j < batch; j++ {
			t0 := fast[a0&(1<<fastBits-1)]
			t1 := fast[a1&(1<<fastBits-1)]
			t2 := fast[a2&(1<<fastBits-1)]
			t3 := fast[a3&(1<<fastBits-1)]
			l0 := uint(t0 & 0xff)
			l1 := uint(t1 & 0xff)
			l2 := uint(t2 & 0xff)
			l3 := uint(t3 & 0xff)
			// Codes longer than fastBits miss the table (length 0) and take
			// the canonical walk; the budget guarantees navl >= maxLen, so
			// no bit checks are needed on this branch either.
			if l0 == 0 {
				s, l, ok := d.slowWalk(a0)
				if !ok {
					return ErrCorrupt
				}
				t0, l0 = uint32(s)<<8, l
			}
			if l1 == 0 {
				s, l, ok := d.slowWalk(a1)
				if !ok {
					return ErrCorrupt
				}
				t1, l1 = uint32(s)<<8, l
			}
			if l2 == 0 {
				s, l, ok := d.slowWalk(a2)
				if !ok {
					return ErrCorrupt
				}
				t2, l2 = uint32(s)<<8, l
			}
			if l3 == 0 {
				s, l, ok := d.slowWalk(a3)
				if !ok {
					return ErrCorrupt
				}
				t3, l3 = uint32(s)<<8, l
			}
			a0 >>= l0
			n0 -= l0
			a1 >>= l1
			n1 -= l1
			a2 >>= l2
			n2 -= l2
			a3 >>= l3
			n3 -= l3
			out[c0] = uint16(t0 >> 8)
			out[c1] = uint16(t1 >> 8)
			out[c2] = uint16(t2 >> 8)
			out[c3] = uint16(t3 >> 8)
			c0++
			c1++
			c2++
			c3++
		}
	}
	// Ragged tails: spill the lane states and finish each lane on the
	// checked per-symbol path.
	if err := d.finishLane(laneReader{b0, a0, n0, p0}, out[c0:e0]); err != nil {
		return err
	}
	if err := d.finishLane(laneReader{b1, a1, n1, p1}, out[c1:e1]); err != nil {
		return err
	}
	if err := d.finishLane(laneReader{b2, a2, n2, p2}, out[c2:e2]); err != nil {
		return err
	}
	return d.finishLane(laneReader{b3, a3, n3, p3}, out[c3:e3])
}
