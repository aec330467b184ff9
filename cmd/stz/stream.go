// Streaming file paths: compress and decompress move raw files through the
// bounded-memory codec Writer.ReadFrom/Reader.WriteTo instead of
// materializing whole grids (a window of z-slabs is resident on the raw
// side; an archive being decoded is read whole, it is the small side). The
// emitted archives are byte-identical to the buffered codec.Encode path
// (including two-pass relative-bound resolution).

package main

import (
	"fmt"
	"math"
	"os"

	"stz/internal/codec"
	"stz/internal/grid"
	"stz/internal/rawio"
)

// scanRange streams the file once and returns the finite value range with
// grid.Range's exact semantics (NaNs skipped; all-NaN input gives (0, 0)).
func scanRange[T grid.Float](path string, n int) (float64, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	// The file is read straight into buf, 1 MiB a step.
	vr := rawio.NewReader[T](f)
	var mn, mx T
	first := true
	buf := make([]T, min(n, (1<<20)/rawio.ElemSize[T]()))
	remaining := n
	for remaining > 0 {
		want := len(buf)
		if want > remaining {
			want = remaining
		}
		if err := vr.ReadExactly(buf[:want]); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		for _, v := range buf[:want] {
			if math.IsNaN(float64(v)) {
				continue
			}
			if first {
				mn, mx = v, v
				first = false
				continue
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		remaining -= want
	}
	return float64(mn), float64(mx), nil
}

// checkRawSize verifies the file holds exactly the declared grid.
func checkRawSize[T grid.Float](path string, n int) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	want := int64(n) * int64(rawio.ElemSize[T]())
	if fi.Size() != want {
		return fmt.Errorf("%s: %d bytes, want %d for the declared grid", path, fi.Size(), want)
	}
	return nil
}

// streamCompressFile compresses a raw file through the bounded-memory
// streaming writer. Relative bounds are resolved with a first pass over
// the file, so even that path never loads the grid.
func streamCompressFile[T grid.Float](in, out string, name string,
	nz, ny, nx int, eb float64, rel bool, workers, chunks int) (int64, error) {

	n := nz * ny * nx
	if err := checkRawSize[T](in, n); err != nil {
		return 0, err
	}
	cfg := codec.Config{EB: eb, Workers: workers, Chunks: chunks}
	if rel {
		mn, mx, err := scanRange[T](in, n)
		if err != nil {
			return 0, err
		}
		cfg.Mode = codec.ModeRel
		cfg = cfg.Resolve(mn, mx)
		if !(cfg.EB > 0) {
			return 0, fmt.Errorf("relative bound %g resolves to %g on range [%g, %g]",
				eb, cfg.EB, mn, mx)
		}
	}

	f, err := os.Open(in)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	o, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	defer o.Close()
	sw, err := codec.NewWriter[T](o, name, nz, ny, nx, cfg)
	if err != nil {
		return 0, err
	}
	if rel {
		if err := sw.SetRequestedBound(eb, codec.ModeRel); err != nil {
			return 0, err
		}
	}
	if _, err := sw.ReadFrom(f); err != nil {
		return 0, fmt.Errorf("%s: %w", in, err)
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	if err := o.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// streamDecodeToFile streams a unified encoded archive to a raw file.
func streamDecodeToFile[T grid.Float](s *codec.Stream, out string, workers int) error {
	sr, err := codec.NewStreamReader[T](s)
	if err != nil {
		return err
	}
	sr.Workers = workers
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	defer o.Close()
	if _, err := sr.WriteTo(o); err != nil {
		return err
	}
	return o.Close()
}
