package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// codeSection writes codes, cut into lanes of the given sizes, as a laned
// section of c's, and returns it with its symbol 0 count.
func codeSection(c *Code, codes []uint16, sizes []int) (sec []byte, zeros int) {
	sec, dir := c.AppendHead(nil, len(sizes))
	var lanes []byte
	for l, size := range sizes {
		lane := codes[:size]
		codes = codes[size:]
		buf := make([]byte, c.LaneBound(size))
		m, escs := c.WriteLane(buf, lane), 0
		for _, code := range lane {
			if code == 0 {
				escs++
			}
		}
		dir.Set(l, m, escs)
		lanes = append(lanes, buf[:m]...)
		zeros += escs
	}
	return append(sec, lanes...), zeros
}

// TestCodeLanesRoundTrip: a stream cut into lanes of arbitrary lengths,
// written by a Code into buffers of their own and joined behind its
// AppendHead, opens as a laned section and decodes — in lockstep pairs and
// an odd lane alone — to the stream, each lane ending in its last byte. The
// Code's header is the head of EncodeLanes' blob of the same stream (one
// histogram, one table), and Zeros counts symbol 0.
func TestCodeLanesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 100, 4096, 20000, 70000} {
		for _, spread := range []int{1, 3, 40, 3000} {
			codes := make([]uint16, n)
			zeros := 0
			for i := range codes {
				codes[i] = uint16(min(1023, max(0, 512+int(rng.NormFloat64()*float64(spread)))))
				if rng.Intn(50) == 0 {
					codes[i] = 0
				}
				if codes[i] == 0 {
					zeros++
				}
			}
			c := NewCode(codes, 1024)
			if c.Zeros() != zeros {
				t.Fatalf("n %d: Zeros %d, want %d", n, c.Zeros(), zeros)
			}
			if blob := EncodeLanes(codes, 1024); !bytes.HasPrefix(blob, c.Header()) {
				t.Fatalf("n %d spread %d: header is not EncodeLanes' head", n, spread)
			}
			var sizes []int
			for at := 0; at < n; at += sizes[len(sizes)-1] {
				sizes = append(sizes, min(n-at, 1+rng.Intn(5000)))
			}
			sec, _ := codeSection(c, codes, sizes)
			hl := len(c.Header())
			c.Release()

			if gotN, headLen, err := HeaderLen(sec, 1024); err != nil || gotN != n || headLen != hl {
				t.Fatalf("n %d: HeaderLen n %d head %d err %v, want %d %d", n, gotN, headLen, err, n, hl)
			}
			s, err := OpenSection(sec, 1024, sizes, zeros, 0)
			if err != nil {
				t.Fatalf("n %d: %v", n, err)
			}
			touched := make([]int32, len(sizes))
			for l := range touched {
				touched[l] = int32(l)
			}
			out := make([]uint16, n)
			if err := s.Decode(touched, out, 1, func(LaneCodes) {}); err != nil {
				t.Fatalf("n %d spread %d: %v", n, spread, err)
			}
			s.Release()
			for i := range codes {
				if out[i] != codes[i] {
					t.Fatalf("n %d spread %d: symbol %d = %d, want %d", n, spread, i, out[i], codes[i])
				}
			}
		}
	}
}

// TestCodeLaneShortBytes: a lane cut short of its symbols' bits — its
// directory entry and its section cut alike, so the directory still fills
// the section — fails with ErrLaneShort, an ErrCorrupt, however its end
// falls.
func TestCodeLaneShortBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := make([]uint16, 3000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(300))
	}
	c := NewCode(codes, 512)
	sec, zeros := codeSection(c, codes, []int{len(codes)})
	hl := len(c.Header())
	c.Release()
	m := int(binary.LittleEndian.Uint16(sec[hl:]))
	for _, short := range []int{1, 2, 9, m / 2} {
		cut := append([]byte(nil), sec[:len(sec)-short]...)
		binary.LittleEndian.PutUint16(cut[hl:], uint16(m-short))
		s, err := OpenSection(cut, 512, []int{len(codes)}, zeros, 0)
		if err == nil {
			err = s.Decode([]int32{0}, nil, 1, func(LaneCodes) {})
			s.Release()
		}
		if !errors.Is(err, ErrLaneShort) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("lane %d bytes short: err %v, want ErrLaneShort", short, err)
		}
	}
}
