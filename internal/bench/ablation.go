package bench

import (
	"fmt"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/sz3"
)

// EBSweep is the relative-error-bound sweep of the rate-distortion
// experiments. It does not reach the paper's CR range (tens to several
// hundred): on the four datasets at harness scale, stzbench -exp fig11
// prints CR 3.3–62.9 for stz and 3.3–63.3 for sz3, from Mag_Rec at 2e-4 to
// WarpX at 2e-2. Both quantiser codecs spend at least one Huffman bit per
// value, so their CR stays under 8 × the element size: 32 on float32
// fields (which top out near 30) and 64 on float64 WarpX.
var EBSweep = []float64{2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2}

// Fig5Ladder returns the ablation ladder of the paper's Fig. 5 in paper
// order. Its first three rungs are not STZ configurations — Partition codes
// the stride-2 sub-blocks apart, and the two residual rungs hand each
// class's prediction residual to SZ3 — so they are built here from
// exported pieces; the other four are STZ configurations.
func Fig5Ladder[T grid.Float]() []Codec[T] {
	named := func(name string, c Codec[T]) Codec[T] {
		c.Name = name
		return c
	}
	mk := STZVariant[T]
	return []Codec[T]{
		Partition[T](),
		named("Direct pred", SZ3Residual[T](core.PredDirect)),
		named("Multi-dim Interp", SZ3Residual[T](core.PredLinear)),
		mk("Multi-dim + Qt", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredLinear}
		}),
		mk("Cubic-Multi + Qt", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredCubic}
		}),
		mk("Cubic-Multi-Qt + Adp", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredCubic, AdaptiveEB: true, EBRatio: 2.5}
		}),
		mk("3-level + All", core.DefaultConfig),
	}
}

// Partition returns the "Partition" rung of Figs. 3 and 5: the eight
// stride-2 parity sub-blocks of the grid, each compressed on its own by the
// registry's sz3 at the full bound, with no cross-level prediction. The
// archive is a container of the eight sub-block streams in
// grid.Stride2Offsets order; an empty sub-block (a grid one point thick)
// has an empty section.
func Partition[T grid.Float]() Codec[T] {
	sz := codec.MustLookup("sz3")
	return Codec[T]{
		Name: "Partition",
		Compress: func(g *grid.Grid[T], eb float64, workers int) ([]byte, error) {
			blocks := grid.PartitionStride2(g)
			return sectioned(len(blocks), workers, func(i int) ([]byte, error) {
				if blocks[i].Len() == 0 {
					return nil, nil
				}
				return codec.Compress(sz, blocks[i], codec.Config{EB: eb})
			})
		},
		Decompress: func(data []byte, workers int) (*grid.Grid[T], error) {
			blocks, err := sections(data, workers, func(sec []byte) (*grid.Grid[T], error) {
				return codec.Decompress[T](sz, sec, 1)
			})
			if err != nil {
				return nil, err
			}
			nz, ny, nx, err := blockGrid(blocks)
			if err != nil {
				return nil, err
			}
			return grid.AssembleStride2(blocks, nz, ny, nx), nil
		},
	}
}

// SZ3Residual returns the Fig. 5 rung that predicts with kernel p but codes
// the residuals with SZ3 instead of quantising them (the ladder before the
// paper's optimisation 3): a two-level hierarchy whose level 1, the
// stride-2 lattice, goes through sz3 at the bound, and whose seven other
// parity classes are predicted from level 1's reconstruction
// (core.PredictClasses) and their residuals compressed by sz3 at 0.999 of
// the bound, so that the float rounding of pred + residual on decode stays
// inside it. The archive is a container of level 1's stream, then the
// seven residual streams in grid.Stride2Offsets order.
func SZ3Residual[T grid.Float](p core.Predictor) Codec[T] {
	return Codec[T]{
		Name: "SZ3 residual " + p.String(),
		Compress: func(g *grid.Grid[T], eb float64, workers int) ([]byte, error) {
			blocks := grid.PartitionStride2(g)
			l1, rec, err := sz3.CompressRecon(blocks[0], sz3.Options{EB: eb})
			if err != nil {
				return nil, err
			}
			preds := core.PredictClasses(rec, g.Nz, g.Ny, g.Nx, p)
			return sectioned(len(blocks), workers, func(c int) ([]byte, error) {
				if c == 0 {
					return l1, nil
				}
				diff := blocks[c]
				if diff.Len() == 0 {
					return nil, nil
				}
				for i, pred := range preds[c].Data {
					diff.Data[i] -= pred
				}
				return sz3.Compress(diff, sz3.Options{EB: eb * 0.999})
			})
		},
		Decompress: func(data []byte, workers int) (*grid.Grid[T], error) {
			blocks, err := sections(data, workers, func(sec []byte) (*grid.Grid[T], error) {
				return sz3.DecompressWorkers[T](sec, 1)
			})
			if err != nil {
				return nil, err
			}
			nz, ny, nx, err := blockGrid(blocks)
			if err != nil {
				return nil, err
			}
			preds := core.PredictClasses(blocks[0], nz, ny, nx, p)
			for c := 1; c < 8; c++ {
				for i, diff := range blocks[c].Data {
					preds[c].Data[i] += diff
				}
			}
			return grid.AssembleStride2(preds, nz, ny, nx), nil
		},
	}
}

// sectioned builds the container of n sections, section i made by enc,
// the n calls run on workers goroutines.
func sectioned(n, workers int, enc func(i int) ([]byte, error)) ([]byte, error) {
	secs := make([][]byte, n)
	errs := make([]error, n)
	parallel.For(n, max(workers, 1), func(i int) { secs[i], errs[i] = enc(i) })
	var b container.Builder
	for i := range secs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		b.Add(secs[i])
	}
	return b.Bytes(), nil
}

// sections decodes the eight sections of a sub-block container with dec,
// on workers goroutines; an empty section is an empty sub-block.
func sections[T grid.Float](data []byte, workers int, dec func(sec []byte) (*grid.Grid[T], error)) ([8]*grid.Grid[T], error) {
	var blocks [8]*grid.Grid[T]
	arc, err := container.Open(data)
	if err != nil {
		return blocks, err
	}
	if arc.Count() != len(blocks) {
		return blocks, fmt.Errorf("want %d sections, have %d", len(blocks), arc.Count())
	}
	errs := make([]error, len(blocks))
	parallel.For(len(blocks), max(workers, 1), func(i int) {
		sec, err := arc.Section(i)
		if err != nil {
			errs[i] = err
			return
		}
		if len(sec) == 0 {
			blocks[i] = grid.New[T](0, 0, 0)
			return
		}
		blocks[i], errs[i] = dec(sec)
	})
	for _, err := range errs {
		if err != nil {
			return blocks, err
		}
	}
	return blocks, nil
}

// blockGrid returns the dims of the grid whose stride-2 sub-blocks are
// blocks — along each axis, the lattice's extent plus that of the class
// offset along that axis alone (empty when the grid is one point thick) —
// or an error when some block is not that grid's parity class.
func blockGrid[T grid.Float](blocks [8]*grid.Grid[T]) (nz, ny, nx int, err error) {
	nz, ny, nx = blocks[0].Nz+blocks[4].Nz, blocks[0].Ny+blocks[2].Ny, blocks[0].Nx+blocks[1].Nx
	for i, off := range grid.Stride2Offsets {
		b := blocks[i]
		bz, by, bx := grid.SubDim(nz, off.Z, 2), grid.SubDim(ny, off.Y, 2), grid.SubDim(nx, off.X, 2)
		if b.Len() != bz*by*bx || b.Len() > 0 && (b.Nz != bz || b.Ny != by || b.Nx != bx) {
			return 0, 0, 0, fmt.Errorf("sub-block %d is %dx%dx%d, want %dx%dx%d", i, b.Nz, b.Ny, b.Nx, bz, by, bx)
		}
	}
	return nz, ny, nx, nil
}
