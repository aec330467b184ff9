package integration_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"stz/internal/bench"
	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/rawio"
	"stz/internal/stzd"
)

// fidelityFloor is one dataset × codec × workers row: what each of the
// three paths measured at rel 1e-3. Every value but the stz box and HTTP
// columns is the 2026-08-08 snapshot of the benchmark suite those floors
// replace; the stz box/HTTP values had no snapshot and were measured when
// the table was written.
type fidelityFloor struct {
	dataset string
	codec   string
	workers int
	// Compress and decompress through bench.Run (one stream, no chunking).
	ratio, psnr float64
	// A centred 16³ box of a 4-chunk archive through a fresh ReaderAt.
	boxReadB, boxPSNR float64
	// POST /v1/compress (4 chunks, mode=rel) then POST /v1/decompress.
	httpRatio, httpPSNR float64
}

// The floors hold each value under one multiplier: ratio and PSNR may not
// fall below 1/1.5 and 1/1.3 of it, bytes read per box voxel may not grow
// past 1.5×.
const ratioSlack, psnrSlack, readSlack = 1.5, 1.3, 1.5

var fidelityFloors = []fidelityFloor{
	{"Nyx-48x40x44-s1001", "stz", 1, 10.192742738213736, 65.65352146682004, 4.738037109375, 65.477206016623, 9.50067476383266, 65.62582462569463},
	{"Nyx-48x40x44-s1001", "stz", 4, 10.192742738213736, 65.65352146682004, 4.738037109375, 65.477206016623, 9.50067476383266, 65.62582462569463},
	{"Nyx-48x40x44-s1001", "sz3", 1, 11.398502327464076, 64.95872928675328, 4.027587890625, 64.92066323165142, 11.18125868572563, 64.94137272343393},
	{"Nyx-48x40x44-s1001", "sz3", 4, 11.207960199004976, 64.94137272343393, 4.027587890625, 64.92066323165142, 11.18125868572563, 64.94137272343393},
	{"Nyx-48x40x44-s1001", "zfp", 1, 4.182540566633248, 75.5815768739752, 10.264404296875, 75.22790402086808, 4.171594346028023, 75.5815768739752},
	{"Nyx-48x40x44-s1001", "zfp", 4, 4.182540566633248, 75.5815768739752, 10.264404296875, 75.22790402086808, 4.171594346028023, 75.5815768739752},
	{"Nyx-48x40x44-s1001", "sperr", 1, 6.5665261071491035, 66.44174906079851, 6.1259765625, 66.37917817026508, 7.190399182909184, 66.4120973389896},
	{"Nyx-48x40x44-s1001", "sperr", 4, 6.5665261071491035, 66.44174906079851, 6.1259765625, 66.37917817026508, 7.190399182909184, 66.4120973389896},
	{"Nyx-48x40x44-s1001", "mgard", 1, 10.138918059347715, 65.47622239764372, 4.792236328125, 65.32605271375627, 9.354445797807552, 65.49256813353594},
	{"Nyx-48x40x44-s1001", "mgard", 4, 10.138918059347715, 65.47622239764372, 4.792236328125, 65.32605271375627, 9.354445797807552, 65.49256813353594},
	{"WarpX-64x24x24-s1002", "stz", 1, 40.32157506152584, 73.03423109612466, 1.177001953125, 55.123726026935785, 34.863695472278046, 73.18314747950838},
	{"WarpX-64x24x24-s1002", "stz", 4, 40.32157506152584, 73.03423109612466, 1.177001953125, 55.123726026935785, 34.863695472278046, 73.18314747950838},
	{"WarpX-64x24x24-s1002", "sz3", 1, 53.68869470234844, 71.45909050293366, 0.7744140625, 53.80347216943975, 50.52458454685626, 71.52463876477769},
	{"WarpX-64x24x24-s1002", "sz3", 4, 51.155594102341716, 71.52463876477769, 0.7744140625, 53.80347216943975, 50.52458454685626, 71.52463876477769},
	{"WarpX-64x24x24-s1002", "zfp", 1, 21.959195830230826, 79.18912128302262, 1.99267578125, 61.320532673739905, 21.619529360017594, 79.18912128302262},
	{"WarpX-64x24x24-s1002", "zfp", 4, 21.959195830230826, 79.18912128302262, 1.99267578125, 61.320532673739905, 21.619529360017594, 79.18912128302262},
	{"WarpX-64x24x24-s1002", "sperr", 1, 47.98438008460788, 71.95330603606685, 0.921875, 55.51908142241029, 45.23884031293143, 72.07911411623138},
	{"WarpX-64x24x24-s1002", "sperr", 4, 47.98438008460788, 71.95330603606685, 0.921875, 55.51908142241029, 45.23884031293143, 72.07911411623138},
	{"WarpX-64x24x24-s1002", "mgard", 1, 39.20138242722318, 73.0528581084477, 1.278076171875, 54.93809587515048, 32.80444938820912, 72.8905666392395},
	{"WarpX-64x24x24-s1002", "mgard", 4, 39.20138242722318, 73.0528581084477, 1.278076171875, 54.93809587515048, 32.80444938820912, 72.8905666392395},
}

// TestCodecFidelityFloors runs every row of fidelityFloors down its three
// paths and holds each path to the error bound and to its floors.
func TestCodecFidelityFloors(t *testing.T) {
	servers := map[int]string{}
	for _, f := range fidelityFloors {
		if servers[f.workers] == "" {
			ts := stzd.StartTest(stzd.Options{Workers: f.workers})
			t.Cleanup(ts.Close)
			servers[f.workers] = ts.URL
		}
	}
	for _, f := range fidelityFloors {
		t.Run(fmt.Sprintf("%s/%s/w%d", f.dataset, f.codec, f.workers), func(t *testing.T) {
			gen, dims, seed, err := datasets.ParseName(f.dataset)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := datasets.Lookup(gen)
			if err != nil {
				t.Fatal(err)
			}
			if spec.DType == "float32" {
				checkFloor(t, f, spec.Generate32(dims[0], dims[1], dims[2], seed), servers[f.workers])
			} else {
				checkFloor(t, f, spec.Generate64(dims[0], dims[1], dims[2], seed), servers[f.workers])
			}
		})
	}
}

func checkFloor[T grid.Float](t *testing.T, f fidelityFloor, g *grid.Grid[T], server string) {
	const ebRel = 1e-3
	mn, mx := g.Range()
	ebAbs := ebRel * (float64(mx) - float64(mn))
	atLeast := func(path, what string, got, snapshot, slack float64) {
		if got < snapshot/slack {
			t.Errorf("%s %s = %g, below the floor %g/%g", path, what, got, snapshot, slack)
		}
	}
	withinBound := func(path string, d metrics.Distortion) {
		if d.MaxErr > ebAbs*(1+1e-9) {
			t.Errorf("%s max error %g exceeds the bound %g", path, d.MaxErr, ebAbs)
		}
	}

	// compress + decompress: bench.Run checks the bound itself.
	c, err := bench.FromRegistry[T](f.codec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.Run(c, g, ebRel, f.workers, false)
	if err != nil {
		t.Fatal(err)
	}
	atLeast("compress", "ratio", r.CR, f.ratio, ratioSlack)
	atLeast("compress", "psnr_db", r.PSNR, f.psnr, psnrSlack)

	// box: a fresh reader per query, so no slab cache hides the read cost.
	enc, err := codec.Encode(f.codec, g, codec.Config{EB: ebAbs, Workers: f.workers, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := codec.OpenReaderAt[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	ra.Workers = f.workers
	box := grid.Box{Z0: (g.Nz - 16) / 2, Y0: (g.Ny - 16) / 2, X0: (g.Nx - 16) / 2}
	box.Z1, box.Y1, box.X1 = box.Z0+16, box.Y0+16, box.X0+16
	sub, err := ra.DecompressBox(box)
	if err != nil {
		t.Fatal(err)
	}
	d, err := metrics.Compare(g.ExtractBox(box), sub)
	if err != nil {
		t.Fatal(err)
	}
	withinBound("box", d)
	atLeast("box", "psnr_db", d.PSNR, f.boxPSNR, psnrSlack)
	if readB := float64(ra.BytesRead()) / float64(box.Volume()); readB > f.boxReadB*readSlack {
		t.Errorf("box readB/voxel = %g, above the ceiling %g×%g", readB, f.boxReadB, readSlack)
	}

	// http: the compress and decompress round trip through stzd.
	raw := make([]byte, g.Len()*rawio.ElemSize[T]())
	rawio.PutValues(raw, g.Data)
	dtype := "f32"
	if rawio.ElemSize[T]() == 8 {
		dtype = "f64"
	}
	archive := postOK(t, fmt.Sprintf("%s/v1/compress?codec=%s&dims=%dx%dx%d&dtype=%s&eb=%g&mode=rel&chunks=4",
		server, f.codec, g.Nz, g.Ny, g.Nx, dtype, ebRel), raw)
	back := postOK(t, server+"/v1/decompress", archive)
	if len(back) != len(raw) {
		t.Fatalf("http decompressed %d bytes, want %d", len(back), len(raw))
	}
	dec := grid.New[T](g.Nz, g.Ny, g.Nx)
	rawio.GetValues(dec.Data, back)
	if d, err = metrics.Compare(g, dec); err != nil {
		t.Fatal(err)
	}
	withinBound("http", d)
	atLeast("http", "ratio", float64(len(raw))/float64(len(archive)), f.httpRatio, ratioSlack)
	atLeast("http", "psnr_db", d.PSNR, f.httpPSNR, psnrSlack)
}

// postOK POSTs body and returns the answer of a 200.
func postOK(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data
}
