package container

import (
	"bytes"
	"errors"
	"testing"
)

func buildSample() (*Builder, [][]byte) {
	secs := [][]byte{
		[]byte("header-bytes"),
		{},
		bytes.Repeat([]byte{0xAB}, 1000),
		[]byte{1, 2, 3},
	}
	var b Builder
	for _, s := range secs {
		b.Add(s)
	}
	return &b, secs
}

func TestWriteToMatchesBytes(t *testing.T) {
	b, _ := buildSample()
	want := b.Bytes()
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("WriteTo reported %d bytes, want %d", n, len(want))
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("WriteTo output differs from Bytes()")
	}
}

func TestReadDirFrom(t *testing.T) {
	b, secs := buildSample()
	enc := b.Bytes()
	r := bytes.NewReader(enc)
	d, err := ReadDirFrom(r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != len(secs) {
		t.Fatalf("Count = %d, want %d", d.Count(), len(secs))
	}
	for i, s := range secs {
		if d.SectionLen(i) != int64(len(s)) {
			t.Fatalf("section %d length %d, want %d", i, d.SectionLen(i), len(s))
		}
	}
	// The reader must now be positioned at section 0.
	head := make([]byte, len(secs[0]))
	if _, err := r.Read(head); err != nil || !bytes.Equal(head, secs[0]) {
		t.Fatalf("reader not positioned at section 0 (err %v)", err)
	}
}

func TestReadDirFromRejectsCorruption(t *testing.T) {
	b, _ := buildSample()
	enc := b.Bytes()

	// Every truncation of the directory area must fail cleanly.
	dirLen := 8 + 8*b.Count() + 4
	for cut := 0; cut < dirLen; cut++ {
		if _, err := ReadDirFrom(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("directory truncated at %d accepted", cut)
		}
	}

	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF // magic
	if _, err := ReadDirFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), enc...)
	bad[9] ^= 0x01 // a section length, breaking the CRC
	if _, err := ReadDirFrom(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted directory: err = %v, want ErrChecksum", err)
	}

	bad = append([]byte(nil), enc...)
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0x7F // huge count
	if _, err := ReadDirFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible section count accepted")
	}
}
