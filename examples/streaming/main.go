// Streaming compression: a producer emits z-planes one at a time (as a
// simulation or instrument would) and the bounded-memory codec Writer
// compresses them on the fly — the full grid never exists in memory on
// either side. The decode half streams planes back out the same way and
// verifies the error bound and byte-compatibility with the buffered path.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"

	"stz/internal/codec"
	"stz/internal/datasets"
)

var (
	flagCodec = flag.String("codec", "sz3", "registry codec (sz3, zfp, sperr, mgard)")
	flagDim   = flag.Int("dim", 96, "cube edge length")
	flagEB    = flag.Float64("eb", 1e-3, "absolute error bound")
)

func main() {
	flag.Parse()
	n := *flagDim
	// Two workers make a window of two slabs: at most two raw z-slabs are
	// resident at once. The chunk count is explicit, so the archive does
	// not depend on the worker count.
	cfg := codec.Config{EB: *flagEB, Workers: 2, Chunks: 4}

	// The "simulation": one z-plane per step, generated on demand. Using a
	// full dataset here keeps the numbers comparable with the buffered
	// path; a real producer would hand planes straight from compute.
	field := datasets.Nyx(n, n, n, 42)
	plane := n * n

	var archive bytes.Buffer
	sw, err := codec.NewWriter[float32](&archive, *flagCodec, n, n, n, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for z := 0; z < n; z++ {
		if err := sw.Write(field.Data[z*plane : (z+1)*plane]); err != nil {
			log.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	rawBytes := 4 * len(field.Data)
	fmt.Printf("streamed %d planes through %s: %d -> %d bytes (CR %.1f)\n",
		n, *flagCodec, rawBytes, archive.Len(), float64(rawBytes)/float64(archive.Len()))

	// Byte-compatibility: the streamed archive is exactly what the
	// buffered pipeline would have produced.
	buffered, err := codec.Encode(*flagCodec, field, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(archive.Bytes(), buffered) {
		log.Fatal("streamed archive differs from codec.Encode")
	}
	fmt.Println("byte-identical to codec.Encode")

	// Stream the reconstruction back plane by plane, checking the bound
	// without ever holding the decoded grid.
	sr, err := codec.NewReader[float32](bytes.NewReader(archive.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	sr.Workers = 4
	buf := make([]float32, plane)
	var worst float64
	for z := 0; ; z++ {
		k, err := sr.Read(buf)
		for i := 0; i < k; i++ {
			if e := math.Abs(float64(buf[i]) - float64(field.Data[z*plane+i])); e > worst {
				worst = e
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if worst > *flagEB*(1+1e-12) {
		log.Fatalf("max reconstruction error %.3g breaks the bound %g", worst, *flagEB)
	}
	fmt.Printf("max reconstruction error %.3g within bound %g\n", worst, *flagEB)
}
