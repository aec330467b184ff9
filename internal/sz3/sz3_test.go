package sz3

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/metrics"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/scratch"
)

// smoothField fills a grid with a smooth trigonometric function plus mild
// noise — the regime interpolation predictors are designed for.
func smoothField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	g := grid.New[T](nz, ny, nx)
	rng := rand.New(rand.NewSource(seed))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(z)/7)*math.Cos(float64(y)/5) +
					0.5*math.Sin(float64(x)/9) + 0.01*rng.NormFloat64()
				g.Set(z, y, x, T(v))
			}
		}
	}
	return g
}

// traversalDims are the grids the traversal, kernel and cone tests sweep:
// cubes, odd and prime extents, 1-D and 2-D shapes, degenerate axes, and the
// 8×128×128 slab the service decodes.
var traversalDims = [][3]int{
	{8, 8, 8}, {7, 5, 9}, {1, 16, 16}, {1, 1, 33}, {2, 2, 2}, {5, 1, 1},
	{1, 1, 1}, {3, 3, 3}, {16, 1, 4}, {33, 18, 7}, {7, 33, 18}, {8, 128, 128},
}

// forEachPredicted is the per-point reference traversal the line traversal
// replaced: it enumerates every non-anchor point in SZ3's order (coarse→fine
// levels; per level, passes along z, then y, then x) and calls fn with the
// point's linear index and the prediction computed from rec's
// already-reconstructed entries.
func forEachPredicted[T grid.Float](rec *grid.Grid[T], fn func(idx int, pred T)) {
	nz, ny, nx := rec.Nz, rec.Ny, rec.Nx
	maxDim := max(nz, ny, nx)
	if maxDim <= 1 {
		return
	}
	data := rec.Data
	rowY := nx
	rowZ := ny * nx
	for s := startStride(maxDim); s >= 2; s >>= 1 {
		h := s / 2
		// Pass along z: z ≡ h (mod s), y ≡ 0 (mod s), x ≡ 0 (mod s).
		for z := h; z < nz; z += s {
			zi := z * rowZ
			for y := 0; y < ny; y += s {
				base := zi + y*rowY
				for x := 0; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h*rowZ, z, h, nz))
				}
			}
		}
		// Pass along y: z ≡ 0 (mod h), y ≡ h (mod s), x ≡ 0 (mod s).
		for z := 0; z < nz; z += h {
			zi := z * rowZ
			for y := h; y < ny; y += s {
				base := zi + y*rowY
				for x := 0; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h*rowY, y, h, ny))
				}
			}
		}
		// Pass along x: z ≡ 0 (mod h), y ≡ 0 (mod h), x ≡ h (mod s).
		for z := 0; z < nz; z += h {
			zi := z * rowZ
			for y := 0; y < ny; y += h {
				base := zi + y*rowY
				for x := h; x < nx; x += s {
					idx := base + x
					fn(idx, predictAxis(data, idx, h, x, h, nx))
				}
			}
		}
	}
}

// refLane is the lane of the predicted point (z, y, x), from the format's
// definition: its level is the half-stride h at which it first appears —
// the lowest set bit of z|y|x — and its brick is the 8h×16h×32h cell of the
// grid it lies in, numbered z-major after the lanes of the coarser levels.
func refLane(tl *tiling, z, y, x int) int {
	h := (z | y | x) & -(z | y | x)
	for i := 0; i < tl.levels; i++ {
		if lv := &tl.lv[i]; lv.h == h {
			return lv.first + ((z/(brickZ*h))*lv.n[1]+y/(brickY*h))*lv.n[2] + x/(brickX*h)
		}
	}
	panic("refLane: an anchor has no lane")
}

// refCompressSerial is the per-point reference encoder (one
// quant.QuantizeFastT call per point), which lays out its version-3 stream
// from refLane, lane by lane: compressSerial must reproduce its archives
// byte for byte.
func refCompressSerial[T grid.Float](g *grid.Grid[T], o Options) []byte {
	q := quant.Quantizer{EB: o.EB, Radius: o.radius()}
	fq := q.Fast()
	rec := grid.New[T](g.Nz, g.Ny, g.Nx)
	tl := newTiling(g.Nz, g.Ny, g.Nx)
	laneCodes, laneEscapes := make([][]uint16, tl.lanes), make([][]byte, tl.lanes)
	var anchors []byte
	nOutliers := 0
	forEachAnchor(g, func(idx int) {
		anchors = rawio.AppendValues(anchors, g.Data[idx])
		rec.Data[idx] = g.Data[idx]
	})
	forEachPredicted(rec, func(idx int, pred T) {
		l := refLane(&tl, idx/(g.Ny*g.Nx), idx/g.Nx%g.Ny, idx%g.Nx)
		code, r, ok := quant.QuantizeFastT(fq, g.Data[idx], float64(pred))
		if !ok {
			laneEscapes[l] = rawio.AppendValues(laneEscapes[l], g.Data[idx])
			nOutliers++
			code, r = 0, g.Data[idx]
		}
		laneCodes[l] = append(laneCodes[l], code)
		rec.Data[idx] = r
	})
	var all []uint16
	for _, lc := range laneCodes {
		all = append(all, lc...)
	}
	code := huffman.NewCode(all, q.Alphabet())
	defer code.Release()
	var lens, escs, lanes []byte
	for l, lc := range laneCodes {
		buf := make([]byte, code.LaneBound(len(lc)))
		n := code.WriteLane(buf, lc)
		lanes = append(lanes, buf[:n]...)
		lens = binary.LittleEndian.AppendUint16(lens, uint16(n))
		escs = binary.LittleEndian.AppendUint16(escs, uint16(len(laneEscapes[l])/rawio.ElemSize[T]()))
	}
	sec := append(append([]byte(nil), code.Header()...), lens...)
	if nOutliers > 0 {
		sec = append(sec, escs...)
	}
	sec = append(sec, lanes...)
	out := make([]byte, 40)
	binary.LittleEndian.PutUint32(out[0:], MagicV3)
	out[4] = byte(rawio.ElemSize[T]())
	binary.LittleEndian.PutUint32(out[8:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(out[12:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(out[16:], uint32(g.Nx))
	binary.LittleEndian.PutUint64(out[20:], math.Float64bits(o.EB))
	binary.LittleEndian.PutUint32(out[28:], uint32(o.radius()))
	binary.LittleEndian.PutUint32(out[32:], uint32(nOutliers))
	binary.LittleEndian.PutUint32(out[36:], uint32(len(sec)))
	out = append(out, anchors...)
	for _, e := range laneEscapes {
		out = append(out, e...)
	}
	return append(out, sec...)
}

// refCodes returns the codes of a serial stream of any version in
// traversal order, and its escape values in the same order: a v3 stream's
// lanes are decoded whole and read back through one cursor per brick.
func refCodes[T grid.Float](data []byte) (codes []uint16, outliers []byte, err error) {
	nz, ny, nx, version, err := parseSerialDims[T](data)
	if err != nil {
		return nil, nil, err
	}
	alphabet := 2 * int(binary.LittleEndian.Uint32(data[28:]))
	nOutliers := int(binary.LittleEndian.Uint32(data[32:]))
	hlen := int(binary.LittleEndian.Uint32(data[36:]))
	elem := rawio.ElemSize[T]()
	pos := 40 + anchorCount(&grid.Grid[T]{Nz: nz, Ny: ny, Nx: nx})*elem
	outs, sec := data[pos:pos+nOutliers*elem], data[pos+nOutliers*elem:][:hlen]
	switch version {
	case 1:
		codes, err = huffman.DecodeInto(nil, sec, alphabet)
		return codes, outs, err
	case 2:
		codes, err = huffman.DecodeLanesInto(nil, sec, alphabet, 1)
		return codes, outs, err
	}
	tl := newTiling(nz, ny, nx)
	counts := tl.laneCodes()
	s, err := huffman.OpenSection(sec, alphabet, counts, nOutliers, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.Release()
	all := make([]int32, tl.lanes)
	for l := range all {
		all[l] = int32(l)
	}
	lanes, escapes := make([][]uint16, tl.lanes), make([][]byte, tl.lanes)
	err = s.Decode(all, nil, 1, func(lc huffman.LaneCodes) {
		lanes[lc.Lane] = append([]uint16(nil), lc.Codes...)
		escapes[lc.Lane] = outs[lc.Esc*elem : (lc.Esc+lc.Escs)*elem]
	})
	if err != nil {
		return nil, nil, err
	}
	forEachLine(nz, ny, nx, nil, func(ln *line) {
		for t := 0; t < ln.n; t++ {
			l := refLane(&tl, ln.z, ln.y, ln.x0+t*ln.stride)
			code := lanes[l][0]
			lanes[l] = lanes[l][1:]
			codes = append(codes, code)
			if code == 0 {
				outliers = append(outliers, escapes[l][:elem]...)
				escapes[l] = escapes[l][elem:]
			}
		}
	})
	return codes, outliers, nil
}

// refDecompressSerial is the per-point reference decoder (one
// quant.DequantizeT call per point) for serial streams of any version: the
// full decode must reproduce its grid bit for bit.
func refDecompressSerial[T grid.Float](data []byte) (*grid.Grid[T], error) {
	codes, outlierData, err := refCodes[T](data)
	if err != nil {
		return nil, err
	}
	nz, ny, nx, _, _ := parseSerialDims[T](data)
	rec := grid.New[T](nz, ny, nx)
	q := quant.Quantizer{
		EB:     math.Float64frombits(binary.LittleEndian.Uint64(data[20:])),
		Radius: int32(binary.LittleEndian.Uint32(data[28:])),
	}
	elem := rawio.ElemSize[T]()
	pos := 40
	forEachAnchor(rec, func(idx int) {
		rawio.GetValues(rec.Data[idx:][:1], data[pos:])
		pos += elem
	})
	ci, oi := 0, 0
	forEachPredicted(rec, func(idx int, pred T) {
		code := codes[ci]
		ci++
		if code == 0 {
			rawio.GetValues(rec.Data[idx:][:1], outlierData[oi:])
			oi += elem
			return
		}
		rec.Data[idx] = quant.DequantizeT[T](q, code, float64(pred))
	})
	if ci != len(codes) {
		return nil, ErrFormat
	}
	return rec, nil
}

// reframe rewrites a serial stream as a version-1 or version-2 one — the
// framing earlier writers emitted: the same header, anchors and codes, the
// escape values in traversal order, and a single-lane (v1) or four-lane
// (v2) Huffman payload.
func reframe[T grid.Float](t testing.TB, enc []byte, version int) []byte {
	t.Helper()
	codes, outliers, err := refCodes[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	nz, ny, nx, _, _ := parseSerialDims[T](enc)
	alphabet := 2 * int(binary.LittleEndian.Uint32(enc[28:]))
	out := append([]byte(nil), enc[:40+anchorCount(&grid.Grid[T]{Nz: nz, Ny: ny, Nx: nx})*rawio.ElemSize[T]()]...)
	out = append(out, outliers...)
	hblob, magic := huffman.EncodeLanes(codes, alphabet), MagicV2
	if version == 1 {
		hblob, magic = huffman.Encode(codes, alphabet), Magic
	}
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint32(out[36:], uint32(len(hblob)))
	return append(out, hblob...)
}

// sameBits reports whether two grids hold the same bit patterns (NaN-safe).
func sameBits[T grid.Float](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// testTraversal checks forEachLine+predictLine against the per-point
// reference on one grid: the same indices in the same order with
// bit-identical predictions, every point covered exactly once together with
// the anchors, and no prediction reading a point that is not yet processed
// (points are NaN until then, so such a read would surface as a NaN).
func testTraversal[T grid.Float](t *testing.T, dims [3]int) {
	t.Helper()
	nan := T(math.NaN())
	ref, got := grid.New[T](dims[0], dims[1], dims[2]), grid.New[T](dims[0], dims[1], dims[2])
	for i := range ref.Data {
		ref.Data[i], got.Data[i] = nan, nan
	}
	rng := rand.New(rand.NewSource(int64(dims[0]*1000003 + dims[1]*1009 + dims[2])))
	seen := make([]int, ref.Len())
	forEachAnchor(ref, func(idx int) {
		v := T(rng.NormFloat64())
		ref.Data[idx], got.Data[idx] = v, v
		seen[idx]++
	})
	type point struct {
		idx  int
		pred T
	}
	var want []point
	forEachPredicted(ref, func(idx int, pred T) {
		if math.IsNaN(float64(pred)) {
			t.Fatalf("dims %v: reference prediction at %d read an unprocessed point", dims, idx)
		}
		want = append(want, point{idx, pred})
		// Perturb the reconstruction so later predictions depend on order.
		ref.Data[idx] = pred + T(rng.NormFloat64())
	})
	k, lastPass := 0, -1
	row := make([]T, (dims[2]+1)/2)
	forEachLine(dims[0], dims[1], dims[2], nil, func(ln *line) {
		if ln.pass < lastPass {
			t.Fatalf("dims %v: pass %d after pass %d", dims, ln.pass, lastPass)
		}
		lastPass = ln.pass
		if ln.n <= 0 || ln.n > len(row) {
			t.Fatalf("dims %v: line of %d points", dims, ln.n)
		}
		if ln.idx != (ln.z*dims[1]+ln.y)*dims[2]+ln.x0 {
			t.Fatalf("dims %v: line index %d is not (%d,%d,%d)", dims, ln.idx, ln.z, ln.y, ln.x0)
		}
		preds := row[:ln.n]
		predictLine(got.Data, ln, preds)
		// A clipped line predicts the same values as the whole one.
		if ln.n > 2 {
			// The cut forEachLine makes of a cone's lines.
			sub := *ln
			sub.idx, sub.c, sub.x0, sub.n = ln.idx+ln.stride, ln.c+ln.dc, ln.x0+ln.stride, ln.n-2
			part := make([]T, sub.n)
			predictLine(got.Data, &sub, part)
			if !sameBits(part, preds[1:ln.n-1]) {
				t.Fatalf("dims %v: sub-line of line at %d predicts differently", dims, ln.idx)
			}
		}
		for i, pred := range preds {
			idx := ln.idx + i*ln.stride
			if k >= len(want) || want[k].idx != idx {
				t.Fatalf("dims %v: point %d of the traversal is %d, reference differs", dims, k, idx)
			}
			if !sameBits([]T{pred}, []T{want[k].pred}) {
				t.Fatalf("dims %v: prediction at %d = %v, reference %v", dims, idx, pred, want[k].pred)
			}
			seen[idx]++
			k++
		}
		// Reconstruct the line only after all of it is predicted — legal
		// because no point of a pass reads another point of the same pass.
		for i := range preds {
			idx := ln.idx + i*ln.stride
			got.Data[idx] = ref.Data[idx]
		}
	})
	if k != len(want) {
		t.Fatalf("dims %v: %d points traversed, reference %d", dims, k, len(want))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("dims %v: point %d visited %d times", dims, i, c)
		}
	}
}

func TestTraversalCoversEveryPointOnce(t *testing.T) {
	for _, dims := range traversalDims {
		testTraversal[float64](t, dims)
		testTraversal[float32](t, dims)
	}
}

// TestTraversalPredictsOnlyFromProcessed replays the line traversal the way
// the decoder does — predict a line, then write it — over a grid that is NaN
// wherever nothing has been written yet, so any prediction reading an
// unprocessed point (including another point of its own pass) yields NaN.
func TestTraversalPredictsOnlyFromProcessed(t *testing.T) {
	for _, dims := range traversalDims {
		g := grid.New[float64](dims[0], dims[1], dims[2])
		for i := range g.Data {
			g.Data[i] = math.NaN()
		}
		forEachAnchor(g, func(idx int) { g.Data[idx] = 1 })
		row := make([]float64, (dims[2]+1)/2)
		forEachLine(dims[0], dims[1], dims[2], nil, func(ln *line) {
			preds := row[:ln.n]
			predictLine(g.Data, ln, preds)
			for i, pred := range preds {
				if math.IsNaN(pred) {
					t.Fatalf("dims %v: prediction at %d read an unprocessed point", dims, ln.idx+i*ln.stride)
				}
			}
			for i := range preds {
				g.Data[ln.idx+i*ln.stride] = 1
			}
		})
	}
}

func testRoundTrip[T grid.Float](t *testing.T, g *grid.Grid[T], eb float64) {
	t.Helper()
	enc, err := Compress(g, DefaultOptions(eb))
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dec, err := Decompress[T](enc)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if dec.Nz != g.Nz || dec.Ny != g.Ny || dec.Nx != g.Nx {
		t.Fatalf("dims mismatch")
	}
	for i := range g.Data {
		if d := math.Abs(float64(g.Data[i]) - float64(dec.Data[i])); d > eb {
			t.Fatalf("error bound violated at %d: |%g| > %g", i, d, eb)
		}
	}
}

func TestRoundTripFloat64(t *testing.T) {
	g := smoothField[float64](16, 16, 16, 1)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTripFloat32(t *testing.T) {
	g := smoothField[float32](16, 16, 16, 2)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTrip2D(t *testing.T) {
	g := smoothField[float64](1, 64, 64, 3)
	testRoundTrip(t, g, 1e-4)
}

func TestRoundTrip1D(t *testing.T) {
	g := smoothField[float64](1, 1, 500, 4)
	testRoundTrip(t, g, 1e-4)
}

func TestRoundTripOddDims(t *testing.T) {
	g := smoothField[float32](13, 7, 29, 5)
	testRoundTrip(t, g, 1e-3)
}

func TestRoundTripTiny(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {1, 2, 3}, {3, 1, 1}} {
		g := smoothField[float64](dims[0], dims[1], dims[2], 6)
		testRoundTrip(t, g, 1e-3)
	}
}

func TestRandomDataErrorBound(t *testing.T) {
	// Pure noise is nearly incompressible but the bound must still hold.
	g := grid.New[float64](12, 12, 12)
	rng := rand.New(rand.NewSource(7))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64() * 100
	}
	testRoundTrip(t, g, 0.5)
}

func TestConstantField(t *testing.T) {
	g := grid.New[float32](8, 8, 8)
	for i := range g.Data {
		g.Data[i] = 3.25
	}
	enc, err := Compress(g, DefaultOptions(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(float64(g.Data[i]-dec.Data[i])) > 1e-6 {
			t.Fatal("constant field bound violated")
		}
	}
	// A constant field must compress extremely well.
	if len(enc) > g.Len() {
		t.Fatalf("constant field barely compressed: %d bytes for %d values", len(enc), g.Len())
	}
}

func TestOutlierHeavyField(t *testing.T) {
	// Alternating huge spikes force the escape path.
	g := grid.New[float64](1, 1, 256)
	for i := range g.Data {
		if i%2 == 0 {
			g.Data[i] = 1e18
		} else {
			g.Data[i] = -1e18
		}
	}
	testRoundTrip(t, g, 1e-9)
}

func TestCompressionRatioOnSmoothData(t *testing.T) {
	g := smoothField[float32](32, 32, 32, 8)
	enc, err := Compress(g, DefaultOptions(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.Ratio{OriginalBytes: g.Len() * 4, CompressedBytes: len(enc)}
	if r.CR() < 4 {
		t.Fatalf("smooth field CR only %.2f", r.CR())
	}
}

func TestDeterministic(t *testing.T) {
	g := smoothField[float64](10, 11, 12, 9)
	a, _ := Compress(g, DefaultOptions(1e-3))
	b, _ := Compress(g, DefaultOptions(1e-3))
	if !bytes.Equal(a, b) {
		t.Fatal("serial compression not deterministic")
	}
}

// TestCompressRecon: the grid CompressRecon hands back is, bit for bit, what
// DecompressWorkers makes of the stream it returns, and the stream is
// Compress's — serial and chunked. The field carries NaN, ±Inf and ±1e30,
// and the radius is tight, so escapes take the verbatim path. STZ's level 1
// skips its decode on this contract.
func TestCompressRecon(t *testing.T) {
	t.Run("f32", compressRecon[float32])
	t.Run("f64", compressRecon[float64])
}

func compressRecon[T grid.Float](t *testing.T) {
	g := grid.ToFloat64(datasets.Nyx(19, 22, 25, 3))
	f := &grid.Grid[T]{Data: make([]T, g.Len()), Nz: g.Nz, Ny: g.Ny, Nx: g.Nx}
	for i, v := range g.Data {
		f.Data[i] = T(v)
	}
	mn, mx := f.Range()
	eb := quant.AbsoluteBound(1e-3, float64(mn), float64(mx))
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30, -1e30} {
		f.Data[97*i+5] = T(v)
	}
	for name, o := range map[string]Options{
		"serial":  {EB: eb, Radius: 8},
		"chunked": {EB: eb, Radius: 8, Workers: 3},
	} {
		enc, rec, err := CompressRecon(f, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Compress(f, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: stream differs from Compress's", name)
		}
		dec, err := DecompressWorkers[T](enc, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Nz != dec.Nz || rec.Ny != dec.Ny || rec.Nx != dec.Nx {
			t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d", name, rec.Nz, rec.Ny, rec.Nx, dec.Nz, dec.Ny, dec.Nx)
		}
		for i, v := range dec.Data {
			if math.Float64bits(float64(rec.Data[i])) != math.Float64bits(float64(v)) {
				t.Fatalf("%s: point %d: reconstruction %v, decode %v", name, i, rec.Data[i], v)
			}
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	g := smoothField[float64](4, 4, 4, 10)
	if _, err := Compress(g, Options{EB: 0}); err == nil {
		t.Fatal("zero EB accepted")
	}
	if _, err := Compress(g, Options{EB: math.NaN()}); err == nil {
		t.Fatal("NaN EB accepted")
	}
	if _, err := Compress(g, Options{EB: -1}); err == nil {
		t.Fatal("negative EB accepted")
	}
	// Codes are uint16; DefaultOptions' radius is the largest accepted.
	for _, workers := range []int{1, 2} {
		if _, err := Compress(g, Options{EB: 1e-3, Radius: quant.DefaultRadius + 1, Workers: workers}); err == nil {
			t.Fatalf("workers %d: radius %d accepted", workers, quant.DefaultRadius+1)
		}
	}
}

func TestDecompressWrongType(t *testing.T) {
	g := smoothField[float64](4, 4, 4, 11)
	enc, _ := Compress(g, DefaultOptions(1e-3))
	if _, err := Decompress[float32](enc); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress[float64]([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decompress[float64](make([]byte, 100)); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestDecompressTruncated(t *testing.T) {
	g := smoothField[float64](8, 8, 8, 12)
	enc, _ := Compress(g, DefaultOptions(1e-3))
	for cut := 0; cut < len(enc); cut += 53 {
		if _, err := Decompress[float64](enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecompressCraftedHeader: header fields that size an allocation are
// checked against the stream first — a radius no uint16 code needs, and
// dims (wrapping or merely huge) the payload could not hold a bit per point
// of, in both the serial and the chunked framing.
func TestDecompressCraftedHeader(t *testing.T) {
	g := smoothField[float32](16, 16, 16, 12)
	for _, workers := range []int{1, 4} {
		enc, err := Compress(g, Options{EB: 1e-3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		crafted := map[string]func(b []byte){
			"dims 2048³":     func(b []byte) { b[9], b[13], b[17] = 8, 8, 8 },
			"dims 2³¹·2³¹·4": func(b []byte) { b[8], b[11], b[12], b[15], b[16] = 0, 0x80, 0, 0x80, 4 },
		}
		if workers == 1 {
			crafted["radius 1<<30"] = func(b []byte) { b[28], b[29], b[30], b[31] = 0, 0, 0, 0x40 }
		}
		for name, mut := range crafted {
			bad := append([]byte(nil), enc...)
			mut(bad)
			if _, err := Decompress[float32](bad); err == nil {
				t.Errorf("workers=%d: %s accepted", workers, name)
			}
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	g := smoothField[float32](32, 16, 16, 13)
	o := DefaultOptions(1e-3)
	o.Workers = 4
	enc, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(float64(g.Data[i]-dec.Data[i])) > 1e-3 {
			t.Fatal("chunked bound violated")
		}
	}
}

func TestChunkedCRDrop(t *testing.T) {
	// The paper notes SZ3-OMP loses compression ratio; chunking must not
	// (significantly) improve on serial.
	g := smoothField[float32](64, 32, 32, 14)
	serial, err := Compress(g, DefaultOptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(1e-3)
	o.Workers = 8
	chunked, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(chunked)) < 0.95*float64(len(serial)) {
		t.Fatalf("chunked (%d) should not beat serial (%d)", len(chunked), len(serial))
	}
}

func TestChunkedMoreChunksThanZ(t *testing.T) {
	g := smoothField[float64](3, 8, 8, 15)
	o := DefaultOptions(1e-3)
	o.Workers = 8
	enc, err := Compress(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(g.Data[i]-dec.Data[i]) > 1e-3 {
			t.Fatal("bound violated")
		}
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	f := func(seed int64, dz, dy, dx uint8, ebRaw uint16) bool {
		nz, ny, nx := int(dz)%6+1, int(dy)%6+1, int(dx)%6+1
		eb := float64(ebRaw%1000+1) / 10000
		g := grid.New[float64](nz, ny, nx)
		rng := rand.New(rand.NewSource(seed))
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		enc, err := Compress(g, DefaultOptions(eb))
		if err != nil {
			return false
		}
		dec, err := Decompress[float64](enc)
		if err != nil {
			return false
		}
		for i := range g.Data {
			if math.Abs(g.Data[i]-dec.Data[i]) > eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRateDistortionMonotone(t *testing.T) {
	// Larger error bounds must not produce larger streams.
	g := smoothField[float32](24, 24, 24, 16)
	prev := -1
	for _, eb := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		enc, err := Compress(g, DefaultOptions(eb))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(enc) > prev+prev/10 {
			t.Fatalf("eb=%g produced larger stream (%d) than tighter bound (%d)", eb, len(enc), prev)
		}
		prev = len(enc)
	}
}

// TestRandomAccessBoxMatchesFull checks the native sub-box decoder against
// the corresponding window of a full decompression, byte for byte, over
// serial and chunked streams and both element types.
func TestRandomAccessBoxMatchesFull(t *testing.T) {
	const nz, ny, nx = 30, 22, 26
	g := smoothField[float32](nz, ny, nx, 21)
	for _, o := range []Options{
		DefaultOptions(1e-3),
		{EB: 1e-3, Workers: 4, Chunks: 5},
	} {
		enc, err := Compress(g, o)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decompress[float32](enc)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		boxes := []grid.Box{
			{Z1: nz, Y1: ny, X1: nx},
			{Z0: nz - 1, Y0: ny - 1, X0: nx - 1, Z1: nz, Y1: ny, X1: nx},
			{Z0: 11, Y0: 3, X0: 7, Z1: 19, Y1: 17, X1: 23}, // spans chunk boundaries
		}
		for i := 0; i < 10; i++ {
			z0, y0, x0 := rng.Intn(nz), rng.Intn(ny), rng.Intn(nx)
			boxes = append(boxes, grid.Box{
				Z0: z0, Y0: y0, X0: x0,
				Z1: z0 + 1 + rng.Intn(nz-z0), Y1: y0 + 1 + rng.Intn(ny-y0), X1: x0 + 1 + rng.Intn(nx-x0),
			})
		}
		for _, b := range boxes {
			got, err := DecompressBox[float32](enc, b, 2)
			if err != nil {
				t.Fatalf("chunks=%d box %+v: %v", o.Chunks, b, err)
			}
			want := full.ExtractBox(b)
			if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
				t.Fatalf("box %+v: dims %dx%dx%d", b, got.Nz, got.Ny, got.Nx)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("chunks=%d box %+v: differs from full at %d", o.Chunks, b, i)
				}
			}
		}
	}

	g64 := smoothField[float64](17, 9, 13, 23)
	enc, err := Compress(g64, Options{EB: 1e-4, Workers: 2, Chunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.Box{Z0: 4, Y0: 2, X0: 5, Z1: 13, Y1: 8, X1: 11}
	got, err := DecompressBox[float64](enc, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := full.ExtractBox(b)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("f64 box differs from full at %d", i)
		}
	}
}

// TestRandomAccessBoxRejectsBadBoxes checks the package-local validation
// (empty, inverted, out of bounds) on both stream variants, and that a bad
// box is refused before anything is decoded: no float arena sees a lease.
func TestRandomAccessBoxRejectsBadBoxes(t *testing.T) {
	floatLeases := func() uint64 {
		all := scratch.All()
		return all["float32"].Hits + all["float32"].Misses + all["float64"].Hits + all["float64"].Misses
	}
	g := smoothField[float32](10, 10, 10, 24)
	for _, o := range []Options{DefaultOptions(1e-3), {EB: 1e-3, Workers: 2, Chunks: 2}} {
		enc, err := Compress(g, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []grid.Box{
			{},
			{Z0: 5, Z1: 5, Y1: 10, X1: 10},
			{Z0: 7, Z1: 3, Y1: 10, X1: 10},
			{Z0: -1, Z1: 10, Y1: 10, X1: 10},
			{Z1: 11, Y1: 10, X1: 10},
			{Z1: 10, Y1: 10, X0: 4, X1: 14},
		} {
			before := floatLeases()
			if _, err := DecompressBox[float32](enc, b, 1); err == nil {
				t.Errorf("chunks=%d: box %+v accepted", o.Chunks, b)
			}
			if n := floatLeases() - before; n != 0 {
				t.Errorf("chunks=%d: box %+v cost %d grid leases before it was refused", o.Chunks, b, n)
			}
		}
	}
}

// kernelFields returns the fields the encoder/decoder equivalence tests run
// on: smooth, outlier-heavy (1e12 spikes), NaN/±Inf-bearing and constant.
func kernelFields[T grid.Float](nz, ny, nx int) map[string]*grid.Grid[T] {
	smooth := smoothField[T](nz, ny, nx, 41)
	spikes := smoothField[T](nz, ny, nx, 42)
	for i := 0; i < spikes.Len(); i += 5 {
		spikes.Data[i] = T(1e12)
	}
	nonFinite := smoothField[T](nz, ny, nx, 43)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nonFinite.Data[(i*7+3)%nonFinite.Len()] = T(v)
		nonFinite.Data[nonFinite.Len()-1-(i*11)%nonFinite.Len()] = T(v)
	}
	constant := grid.New[T](nz, ny, nx)
	for i := range constant.Data {
		constant.Data[i] = 3.25
	}
	return map[string]*grid.Grid[T]{"smooth": smooth, "spikes": spikes, "nonfinite": nonFinite, "constant": constant}
}

func testKernelsMatchReference[T grid.Float](t *testing.T) {
	// The last two shapes' finest lines span three to five 16-point brick
	// pieces, the last of them one point long, and the spikes field puts
	// escapes on the seams between pieces.
	for _, dims := range [][3]int{{7, 5, 9}, {1, 16, 16}, {1, 1, 33}, {16, 1, 4}, {33, 18, 7}, {8, 32, 40}, {3, 5, 97}, {2, 3, 130}} {
		for name, g := range kernelFields[T](dims[0], dims[1], dims[2]) {
			for _, eb := range []float64{1e-2, 1e-5, 1e-9} {
				for _, radius := range []int32{8, 0} {
					o := Options{EB: eb, Radius: radius}
					want := refCompressSerial(g, o)
					enc, err := Compress(g, o)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(enc, want) {
						t.Fatalf("%v %s eb=%g radius=%d: archive differs from the per-point encoder's", dims, name, eb, radius)
					}
					if nOut := binary.LittleEndian.Uint32(enc[32:]); (name == "spikes" || name == "nonfinite") && nOut == 0 {
						t.Fatalf("%v %s eb=%g: field produced no escapes", dims, name, eb)
					}
					for version, stream := range map[int][]byte{3: enc, 2: reframe[T](t, enc, 2), 1: reframe[T](t, enc, 1)} {
						ref, err := refDecompressSerial[T](stream)
						if err != nil {
							t.Fatal(err)
						}
						dec, err := Decompress[T](stream)
						if err != nil {
							t.Fatalf("%v %s eb=%g radius=%d v%d: %v", dims, name, eb, radius, version, err)
						}
						if !sameBits(dec.Data, ref.Data) {
							t.Fatalf("%v %s eb=%g radius=%d v%d: decode differs from the per-point decoder's", dims, name, eb, radius, version)
						}
					}
				}
			}
		}
	}
}

// TestKernelsMatchReference: the line-kernel encoder reproduces the
// per-point encoder's archives byte for byte, and the full decode (the
// whole-grid box of the one decoder) the per-point decoder's grid bit for
// bit, on v3 streams and on the same codes reframed as v2 and v1.
func TestKernelsMatchReference(t *testing.T) {
	t.Run("f32", testKernelsMatchReference[float32])
	t.Run("f64", testKernelsMatchReference[float64])
}
