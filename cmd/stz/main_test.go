package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/grid"
)

func TestParseDims(t *testing.T) {
	nz, ny, nx, err := parseDims("12x34x56")
	if err != nil || nz != 12 || ny != 34 || nx != 56 {
		t.Fatalf("got %d %d %d err=%v", nz, ny, nx, err)
	}
	for _, bad := range []string{"", "12", "1x2", "1x2x3x4", "axbxc", "0x1x1", "-1x2x3"} {
		if _, _, _, err := parseDims(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseBox(t *testing.T) {
	b, err := parseBox("1:2,3:4,5:6")
	if err != nil {
		t.Fatal(err)
	}
	want := grid.Box{Z0: 1, Z1: 2, Y0: 3, Y1: 4, X0: 5, X1: 6}
	if b != want {
		t.Fatalf("got %+v want %+v", b, want)
	}
	for _, bad := range []string{"", "1:2", "1:2,3:4", "1,2,3", "a:b,c:d,e:f"} {
		if _, err := parseBox(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRawFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p32 := filepath.Join(dir, "a.f32")
	g32 := grid.New[float32](2, 3, 4)
	for i := range g32.Data {
		g32.Data[i] = float32(i) * 1.5
	}
	if err := writeRaw(p32, g32); err != nil {
		t.Fatal(err)
	}
	back, err := readRaw[float32](p32, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g32.Data {
		if back.Data[i] != g32.Data[i] {
			t.Fatal("f32 raw round-trip mismatch")
		}
	}
	// Size validation.
	if _, err := readRaw[float32](p32, 2, 3, 5); err == nil {
		t.Fatal("size mismatch accepted")
	}

	p64 := filepath.Join(dir, "a.f64")
	g64 := grid.New[float64](1, 2, 2)
	copy(g64.Data, []float64{1.25, -2.5, 3.75, 0})
	if err := writeRaw(p64, g64); err != nil {
		t.Fatal(err)
	}
	back64, err := readRaw[float64](p64, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g64.Data {
		if back64.Data[i] != g64.Data[i] {
			t.Fatal("f64 raw round-trip mismatch")
		}
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "nyx.f32")
	stzf := filepath.Join(dir, "nyx.stz")
	outRaw := filepath.Join(dir, "out.f32")
	png := filepath.Join(dir, "slice.png")

	if err := cmdGen([]string{"-dataset", "Nyx", "-dims", "16x16x16", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", raw, "-dims", "16x16x16", "-eb", "1e-3", "-rel", "-out", stzf}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-in", stzf}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", stzf, "-out", outRaw}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", stzf, "-out", outRaw, "-level", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", stzf, "-out", outRaw, "-box", "0:8,0:8,0:8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-in", stzf, "-out", outRaw, "-slice", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdROI([]string{"-in", raw, "-dims", "16x16x16", "-mode", "max", "-threshold", "50", "-block", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRender([]string{"-in", raw, "-dims", "16x16x16", "-z", "8", "-cmap", "rainbow", "-out", png}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(png); err != nil || fi.Size() == 0 {
		t.Fatalf("png missing: %v", err)
	}
	// Error paths.
	if err := cmdGen([]string{"-dataset", "Nope", "-out", raw}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := cmdRender([]string{"-in", raw, "-dims", "16x16x16", "-cmap", "nope", "-out", png}); err == nil {
		t.Fatal("unknown colormap accepted")
	}
}

// TestStreamingMatchesBufferedEncode is the acceptance check for the
// streaming rewire: compressing a raw file through the CLI (which now
// streams registry codecs with bounded memory) must produce archives
// byte-identical to the buffered codec.Encode path, in both absolute and
// two-pass relative mode, and streaming decompression must reproduce
// codec.Decode's output exactly.
func TestStreamingMatchesBufferedEncode(t *testing.T) {
	t.Setenv("STZ_WORKERS", "") // the default chunk plan under test is the deterministic one
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f32")
	if err := cmdGen([]string{"-dataset", "Miranda", "-dims", "24x10x12", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	g, err := readRaw[float32](raw, 24, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		args  []string
		cfg   codec.Config
	}{
		{"abs", []string{"-eb", "0.05"}, codec.Config{EB: 0.05, Workers: 1}},
		{"abs-chunked", []string{"-eb", "0.05", "-workers", "2", "-chunks", "3"},
			codec.Config{EB: 0.05, Workers: 2, Chunks: 3}},
		{"rel", []string{"-eb", "1e-3", "-rel", "-chunks", "2"},
			codec.Config{EB: 1e-3, Mode: codec.ModeRel, Chunks: 2, Workers: 1}},
	} {
		for _, name := range codec.Names() {
			enc := filepath.Join(dir, name+"."+tc.label+".enc")
			args := append([]string{"-in", raw, "-dims", "24x10x12", "-codec", name, "-out", enc}, tc.args...)
			if err := cmdCompress(args); err != nil {
				t.Fatalf("%s/%s: compress: %v", name, tc.label, err)
			}
			got, err := os.ReadFile(enc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := codec.Encode(name, g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: streamed archive differs from codec.Encode (%d vs %d bytes)",
					name, tc.label, len(got), len(want))
			}

			dec := filepath.Join(dir, name+"."+tc.label+".dec")
			if err := cmdDecompress([]string{"-in", enc, "-out", dec, "-workers", "2"}); err != nil {
				t.Fatalf("%s/%s: decompress: %v", name, tc.label, err)
			}
			wantGrid, err := codec.Decode[float32](want, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotGrid, err := readRaw[float32](dec, 24, 10, 12)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantGrid.Data {
				if gotGrid.Data[i] != wantGrid.Data[i] {
					t.Fatalf("%s/%s: streamed reconstruction differs at %d", name, tc.label, i)
				}
			}
		}
	}
}

// TestCodecFlagRoundTrip drives the acceptance path: stz -codec
// {sz3,zfp,sperr,mgard} must round-trip a float32 and a float64 grid
// within the configured absolute error bound via the registry.
func TestCodecFlagRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const eb = 0.05
	for _, dtype := range []string{"f32", "f64"} {
		raw := filepath.Join(dir, "in."+dtype)
		dataset := "Nyx" // float32
		if dtype == "f64" {
			dataset = "WarpX" // the evaluation's float64 field
		}
		if err := cmdGen([]string{"-dataset", dataset, "-dims", "16x12x14", "-out", raw}); err != nil {
			t.Fatal(err)
		}
		read := func(path string) *grid.Grid[float64] {
			t.Helper()
			if dtype == "f32" {
				g, err := readRaw[float32](path, 16, 12, 14)
				if err != nil {
					t.Fatal(err)
				}
				return grid.ToFloat64(g)
			}
			g, err := readRaw[float64](path, 16, 12, 14)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		orig := read(raw)
		for _, name := range codec.Names() {
			enc := filepath.Join(dir, name+"."+dtype+".enc")
			dec := filepath.Join(dir, name+"."+dtype+".dec")
			if err := cmdCompress([]string{"-in", raw, "-dims", "16x12x14", "-dtype", dtype,
				"-codec", name, "-eb", "0.05", "-workers", "2", "-out", enc}); err != nil {
				t.Fatalf("%s/%s: compress: %v", name, dtype, err)
			}
			if err := cmdInfo([]string{"-in", enc}); err != nil {
				t.Fatalf("%s/%s: info: %v", name, dtype, err)
			}
			if err := cmdDecompress([]string{"-in", enc, "-out", dec, "-workers", "2"}); err != nil {
				t.Fatalf("%s/%s: decompress: %v", name, dtype, err)
			}
			got := read(dec)
			for i := range orig.Data {
				if e := math.Abs(orig.Data[i] - got.Data[i]); e > eb*(1+1e-12) {
					t.Fatalf("%s/%s: error %g at %d exceeds bound %g", name, dtype, e, i, eb)
				}
			}
		}
	}
}

// TestRandomAccessExtractCommand drives stz extract against a chunked sz3
// archive and a default (stz) one. The extracted window must be
// byte-identical to the same region of a full decompression, and invalid
// boxes must be rejected.
func TestRandomAccessExtractCommand(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f32")
	if err := cmdGen([]string{"-dataset", "Nyx", "-dims", "24x16x16", "-out", raw}); err != nil {
		t.Fatal(err)
	}

	check := func(label, enc string, full *grid.Grid[float32], b grid.Box) {
		t.Helper()
		out := filepath.Join(dir, label+".box.f32")
		spec := boxSpecOf(b)
		if err := cmdExtract([]string{"-in", enc, "-box", spec, "-out", out}); err != nil {
			t.Fatalf("%s: extract: %v", label, err)
		}
		got, err := readRaw[float32](out, b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
		if err != nil {
			t.Fatal(err)
		}
		want := full.ExtractBox(b)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: extracted box differs from full decode at %d", label, i)
			}
		}
	}
	b := grid.Box{Z0: 5, Y0: 2, X0: 3, Z1: 15, Y1: 12, X1: 13}

	// Registry archive (chunked, so the extract can skip slabs).
	encReg := filepath.Join(dir, "in.sz3")
	if err := cmdCompress([]string{"-in", raw, "-dims", "24x16x16", "-codec", "sz3",
		"-eb", "0.01", "-chunks", "3", "-out", encReg}); err != nil {
		t.Fatal(err)
	}
	regBytes, err := os.ReadFile(encReg)
	if err != nil {
		t.Fatal(err)
	}
	fullReg, err := codec.Decode[float32](regBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("registry", encReg, fullReg, b)

	// The paper's codec, the default.
	encCore := filepath.Join(dir, "in.stz")
	if err := cmdCompress([]string{"-in", raw, "-dims", "24x16x16", "-eb", "0.01", "-out", encCore}); err != nil {
		t.Fatal(err)
	}
	decFull := filepath.Join(dir, "full.f32")
	if err := cmdDecompress([]string{"-in", encCore, "-out", decFull}); err != nil {
		t.Fatal(err)
	}
	fullCore, err := readRaw[float32](decFull, 24, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	check("core", encCore, fullCore, b)

	// Out-of-bounds and inverted boxes are rejected for both.
	for _, enc := range []string{encReg, encCore} {
		for _, spec := range []string{"0:25,0:16,0:16", "5:5,0:16,0:16", "8:4,0:16,0:16"} {
			if err := cmdExtract([]string{"-in", enc, "-box", spec,
				"-out", filepath.Join(dir, "bad.f32")}); err == nil {
				t.Errorf("%s: box %s accepted", enc, spec)
			}
		}
	}
}

func boxSpecOf(b grid.Box) string {
	return fmt.Sprintf("%d:%d,%d:%d,%d:%d", b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
}

// TestLegacyBareCoreArchives runs the pinned pre-registry core archives —
// bare, no SZXC frame, one of them with chunked code streams no CLI flag
// ever wrote — through every read command: loadArchive adopts them, and
// the one path reproduces the pinned full decode and core.Reader's level,
// box and slice.
func TestLegacyBareCoreArchives(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.f32")
	sameFile := func(label string, want []float32) {
		t.Helper()
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := make([]byte, 4*len(want))
		for i, v := range want {
			binary.LittleEndian.PutUint32(wantBytes[4*i:], math.Float32bits(v))
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("%s: output differs from the reference", label)
		}
	}
	for _, name := range []string{"core", "core_codechunk"} {
		corpus := filepath.Join("..", "..", "internal", "integration", "testdata", name)
		bare, err := os.ReadFile(corpus + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		if codec.IsEncoded(bare) {
			t.Fatalf("%s: pinned archive is not bare", name)
		}
		r, err := core.NewReader[float32](bare)
		if err != nil {
			t.Fatal(err)
		}
		in := corpus + ".bin"
		if err := cmdInfo([]string{"-in", in}); err != nil {
			t.Fatalf("%s: info: %v", name, err)
		}

		if err := cmdDecompress([]string{"-in", in, "-out", out}); err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		pinned, err := os.ReadFile(corpus + ".out")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, pinned) {
			t.Fatalf("%s: full decode differs from the pinned output", name)
		}

		if err := cmdDecompress([]string{"-in", in, "-out", out, "-level", "1"}); err != nil {
			t.Fatalf("%s: -level 1: %v", name, err)
		}
		coarse, err := r.Progressive(1)
		if err != nil {
			t.Fatal(err)
		}
		sameFile(name+" -level 1", coarse.Data)

		b := grid.Box{Z0: 3, Y0: 5, X0: 7, Z1: 17, Y1: 19, X1: 23}
		win, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range []func([]string) error{cmdDecompress, cmdExtract} {
			if err := cmd([]string{"-in", in, "-out", out, "-box", boxSpecOf(b)}); err != nil {
				t.Fatalf("%s: -box: %v", name, err)
			}
			sameFile(name+" -box", win.Data)
		}

		if err := cmdDecompress([]string{"-in", in, "-out", out, "-slice", "11"}); err != nil {
			t.Fatalf("%s: -slice: %v", name, err)
		}
		plane, _, err := r.DecompressSliceZ(11)
		if err != nil {
			t.Fatal(err)
		}
		sameFile(name+" -slice", plane.Data)
	}
}

// TestBoxFlagIsExtract: decompress -box and extract are one function, for
// every codec — zfp, which the CLI's old stz-only -box refused, included.
func TestBoxFlagIsExtract(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f32")
	if err := cmdGen([]string{"-dataset", "Nyx", "-dims", "24x16x16", "-out", raw}); err != nil {
		t.Fatal(err)
	}
	enc := filepath.Join(dir, "in.zfp")
	if err := cmdCompress([]string{"-in", raw, "-dims", "24x16x16", "-codec", "zfp",
		"-eb", "0.01", "-chunks", "3", "-out", enc}); err != nil {
		t.Fatal(err)
	}
	viaBox, viaExtract := filepath.Join(dir, "a.f32"), filepath.Join(dir, "b.f32")
	if err := cmdDecompress([]string{"-in", enc, "-box", "5:15,2:12,3:13", "-out", viaBox}); err != nil {
		t.Fatalf("decompress -box on a zfp archive: %v", err)
	}
	if err := cmdExtract([]string{"-in", enc, "-box", "5:15,2:12,3:13", "-out", viaExtract}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(viaBox)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(viaExtract)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4*10*10*10 || !bytes.Equal(a, b) {
		t.Fatalf("decompress -box wrote %d bytes, extract %d, or they differ", len(a), len(b))
	}
	// A level is the one read a codec can lack: the error is the registry's.
	if err := cmdDecompress([]string{"-in", enc, "-level", "1", "-out", viaBox}); err == nil {
		t.Fatal("-level on a zfp archive accepted")
	}
}
