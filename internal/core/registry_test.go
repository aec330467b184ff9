package core

import (
	"bytes"
	"testing"

	"stz/internal/codec"
)

// TestRegistryPayloadIsCoreArchive: what the registry codec "stz" emits is
// Compress under DefaultConfig, byte for byte and whatever the worker
// count — the reason no pinned archive or benchmark checksum moved when
// the codec went behind the registry.
func TestRegistryPayloadIsCoreArchive(t *testing.T) {
	c := codec.MustLookup("stz")
	g32 := testField[float32](33, 18, 21, 77)
	g64 := testField[float64](33, 18, 21, 77)
	want32, err := Compress(g32, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	want64, err := Compress(g64, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := codec.Config{EB: 1e-3, Workers: workers}
		got32, err := codec.Compress(c, g32, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got64, err := codec.Compress(c, g64, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got32, want32) || !bytes.Equal(got64, want64) {
			t.Fatalf("workers %d: registry payload differs from core.Compress", workers)
		}
		// Framed, the payload is section 1 untouched.
		enc, err := codec.Encode("stz", g32, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(enc, want32) || len(enc) != len(want32)+76 {
			t.Fatalf("workers %d: SZXC frame is %d bytes around a %d-byte payload, want 76 more",
				workers, len(enc), len(want32))
		}
	}
}
