package huffman

import "testing"

func TestCorruptCountRejectedFast(t *testing.T) {
	// The 12-byte input FuzzDecodeLanes found pre-fix: gamma count ~8e9
	// with an empty table; must error in O(1), not allocate 16 GiB.
	data := []byte("\x00\x00\x00\x00\xf7 2wnT\xd9\x00")
	if _, err := DecodeLanesInto(nil, data, 76, 1); err == nil {
		t.Fatal("implausible symbol count accepted")
	}
	if _, err := DecodeInto(nil, data, 76); err == nil {
		t.Fatal("implausible symbol count accepted by v1 decoder")
	}
}

func TestCorruptDeltaOverflowRejected(t *testing.T) {
	// Crafted gamma delta near 2^64 in the code-length table: int(delta)
	// wraps negative and indexed lengths[-…] before the bound was added.
	// Input found by FuzzDecodeLanes.
	data := []byte("A\x01\x00\x00\x00\x00\x00\x00\x008000000000000000")
	if _, err := DecodeLanesInto(nil, data, 127, 1); err == nil {
		t.Fatal("overflowing table delta accepted by lanes decoder")
	}
	if _, err := DecodeInto(nil, data, 127); err == nil {
		t.Fatal("overflowing table delta accepted by v1 decoder")
	}
}
