package scratch

import (
	"sync"
	"testing"
)

func TestLeaseLenAndCapacityReuse(t *testing.T) {
	a := NewArena[int]("test-int")
	s := a.Lease(100)
	if len(s) != 100 || cap(s) < 100 {
		t.Fatalf("lease(100): len=%d cap=%d", len(s), cap(s))
	}
	for i := range s {
		s[i] = i
	}
	// A smaller request in the same size class must reuse the capacity. The
	// race detector makes sync.Pool drop a random share of its Puts, so the
	// release and lease repeat until the reuse happens: every round but the
	// last is one release and one miss.
	for round := 1; ; round++ {
		a.Release(s)
		s2 := a.Lease(80)
		if len(s2) != 80 {
			t.Fatalf("lease(80): len=%d", len(s2))
		}
		st := a.Stats()
		if st.Hits == 1 {
			if st.Misses != uint64(round) || st.Releases != uint64(round) {
				t.Fatalf("stats after reuse in round %d: %+v", round, st)
			}
			break
		}
		if round == 50 {
			t.Fatalf("no reuse in %d rounds: %+v", round, a.Stats())
		}
		s = s2
	}
}

func TestLeaseZeroed(t *testing.T) {
	a := NewArena[float64]("test-zeroed")
	s := a.Lease(64)
	for i := range s {
		s[i] = 42
	}
	a.Release(s)
	z := a.LeaseZeroed(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("LeaseZeroed[%d] = %v", i, v)
		}
	}
}

func TestUndersizedReleaseDiscards(t *testing.T) {
	a := NewArena[byte]("test-discard")
	a.Release(make([]byte, 0, 16)) // below the minimum size class
	st := a.Stats()
	if st.Discards != 1 || st.Releases != 0 {
		t.Fatalf("undersized release stats: %+v", st)
	}
	// An oversize lease must still be served (by plain allocation).
	n := (1 << maxClassBits) + 1
	if s := a.Lease(n); len(s) != n {
		t.Fatalf("oversize lease len=%d", len(s))
	}
	if st := a.Stats(); st.Hits != 0 {
		t.Fatalf("oversize lease hit the pool: %+v", st)
	}
}

func TestDisabledAllocates(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	a := NewArena[uint16]("test-disabled")
	s := a.Lease(128)
	a.Release(s)
	s2 := a.Lease(128)
	_ = s2
	st := a.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Releases != 0 {
		t.Fatalf("disabled stats: %+v", st)
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, minClassBits}, {1, minClassBits}, {64, minClassBits},
		{65, 7}, {128, 7}, {129, 8}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := classOf(c.n); got != c.class {
			t.Errorf("classOf(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestSteadyStateLeaseDoesNotAllocate(t *testing.T) {
	a := NewArena[float32]("test-steady")
	// Warm the class and the box pool.
	for i := 0; i < 8; i++ {
		a.Release(a.Lease(1024))
	}
	avg := testing.AllocsPerRun(100, func() {
		s := a.Lease(1024)
		a.Release(s)
	})
	// sync.Pool can shed items across GCs, so allow a small residue, but a
	// working pool must be far below one allocation per cycle.
	if avg > 0.5 {
		t.Fatalf("steady-state lease/release allocates %.2f allocs/op", avg)
	}
}

func TestConcurrentLeaseRelease(t *testing.T) {
	a := NewArena[uint64]("test-concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 64 + (seed*131+i*17)%4096
				s := a.Lease(n)
				if len(s) != n {
					t.Errorf("len=%d want %d", len(s), n)
					return
				}
				s[0], s[n-1] = uint64(seed), uint64(i)
				a.Release(s)
			}
		}(w)
	}
	wg.Wait()
	st := a.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lost leases: %+v", st)
	}
}

func TestFloatDispatch(t *testing.T) {
	before32 := F32.Stats()
	s := LeaseFloat[float32](256)
	if len(s) != 256 {
		t.Fatalf("LeaseFloat[float32] len=%d", len(s))
	}
	ReleaseFloat(s)
	after32 := F32.Stats()
	if after32.Hits+after32.Misses != before32.Hits+before32.Misses+1 {
		t.Fatalf("float32 lease not routed to F32 arena")
	}
	d := LeaseFloat[float64](256)
	if len(d) != 256 {
		t.Fatalf("LeaseFloat[float64] len=%d", len(d))
	}
	ReleaseFloat(d)

	// A named float type must still work, just unpooled.
	type myFloat float64
	m := LeaseFloat[myFloat](32)
	if len(m) != 32 {
		t.Fatalf("named-type lease len=%d", len(m))
	}
	ReleaseFloat(m)
}

func TestAllAndGlobalStats(t *testing.T) {
	a := NewArena[int8]("test-registry")
	a.Release(a.Lease(64))
	all := All()
	if _, ok := all["test-registry"]; !ok {
		t.Fatalf("arena missing from All(): %v", all)
	}
	g := GlobalStats()
	if g.Hits+g.Misses == 0 {
		t.Fatalf("global stats empty")
	}
	if hr := (Stats{Hits: 3, Misses: 1}).HitRate(); hr != 0.75 {
		t.Fatalf("HitRate = %v", hr)
	}
}
