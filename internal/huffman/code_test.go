package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestCodeLanesRoundTrip: a stream cut into lanes of arbitrary lengths,
// written by a Code into buffers of their own and joined, decodes lane by
// lane — in lockstep pairs and alone — to the stream, each lane ending in
// its last byte. The Code's header is the head of EncodeLanes' blob of the
// same stream (one histogram, one table), and Zeros counts symbol 0.
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
			data := append([]byte(nil), c.Header()...)
			var lanes []Lane
			for at := 0; at < n; {
				stop := min(n, at+1+rng.Intn(5000))
				buf := make([]byte, c.LaneBound(stop-at))
				m := c.WriteLane(buf, codes[at:stop])
				lanes = append(lanes, Lane{Start: len(data), End: len(data) + m, At: at, Stop: stop})
				data = append(data, buf[:m]...)
				at = stop
			}
			hl := len(c.Header())
			c.Release()

			cr, gotN, headLen, err := ReadCode(data, 1024, n)
			if err != nil || gotN != n || headLen != hl {
				t.Fatalf("n %d: ReadCode n %d head %d err %v, want %d %d", n, gotN, headLen, err, n, hl)
			}
			out := make([]uint16, n)
			for i := 0; i < len(lanes); i += 2 {
				var ends [2]int
				if i+1 < len(lanes) {
					ends[0], ends[1], err = cr.DecodePair(data, out, lanes[i], lanes[i+1])
				} else {
					ends[0], err = cr.Decode(data, out, lanes[i])
				}
				if err != nil {
					t.Fatalf("n %d lane %d: %v", n, i, err)
				}
				for j := 0; j < 2 && i+j < len(lanes); j++ {
					if l := lanes[i+j]; (ends[j]+7)/8 != l.End {
						t.Fatalf("n %d lane %d: ended at bit %d, its bytes end at %d", n, i+j, ends[j], l.End)
					}
				}
			}
			cr.Release()
			for i := range codes {
				if out[i] != codes[i] {
					t.Fatalf("n %d spread %d: symbol %d = %d, want %d", n, spread, i, out[i], codes[i])
				}
			}
		}
	}
}

// TestCodeLaneShortBytes: a lane cut short of its symbols' bits fails with
// ErrCorrupt, however its end falls.
func TestCodeLaneShortBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := make([]uint16, 3000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(300))
	}
	c := NewCode(codes, 512)
	data := append([]byte(nil), c.Header()...)
	buf := make([]byte, c.LaneBound(len(codes)))
	m := c.WriteLane(buf, codes)
	data = append(data, buf[:m]...)
	hl := len(c.Header())
	c.Release()
	for _, short := range []int{1, 2, 9, m / 2} {
		cr, _, _, err := ReadCode(data, 512, len(codes))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint16, len(codes))
		_, err = cr.Decode(data[:len(data)-short], out, Lane{Start: hl, End: hl + m - short, Stop: len(codes)})
		cr.Release()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("lane %d bytes short: err %v, want ErrCorrupt", short, err)
		}
	}
}
