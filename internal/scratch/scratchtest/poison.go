// Package scratchtest holds the test helper the poisoned-lease tests of the
// packages that lease from internal/scratch share.
package scratchtest

import (
	"math"

	"stz/internal/scratch"
)

// Poison leases buffers across the size classes of every shared arena up to
// maxElems elements, fills them with hostile patterns (NaN floats, all-ones
// integers, 0xAB bytes) and releases them, so subsequent leases receive
// dirty buffers: any element a hot path reads before writing it shows up as
// an archive or value difference against an unpooled reference.
func Poison(maxElems int) {
	for n := 64; n <= maxElems; n *= 2 {
		f32 := scratch.F32.Lease(n)
		for i := range f32 {
			f32[i] = float32(math.NaN())
		}
		scratch.F32.Release(f32)
		f64 := scratch.F64.Lease(n)
		for i := range f64 {
			f64[i] = math.NaN()
		}
		scratch.F64.Release(f64)
		u16 := scratch.U16.Lease(n)
		for i := range u16 {
			u16[i] = 0xFFFF
		}
		scratch.U16.Release(u16)
		u64 := scratch.U64.Lease(n)
		for i := range u64 {
			u64[i] = ^uint64(0)
		}
		scratch.U64.Release(u64)
		bs := scratch.Bytes.Lease(n)
		for i := range bs {
			bs[i] = 0xAB
		}
		scratch.Bytes.Release(bs)
	}
}
