package retry

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"testing/quick"
	"time"
)

// TestWithDefaultsIdempotent: normalising a normalised policy changes
// nothing. Each field is drawn from the values its defaulting branches
// distinguish (negative, zero, in range, over range), so every sentinel
// is covered — a "none" sentinel that normalises to the "use default"
// value, as negative Jitter once did, fails here.
func TestWithDefaultsIdempotent(t *testing.T) {
	ints := []int{-1, 0, 1, 7}
	durs := []time.Duration{-1, 0, time.Millisecond, time.Hour}
	floats := []float64{-1, 0, 0.25, 1, 3}
	pick := func(n uint8, k int) int { return int(n) % k }
	prop := func(a, b, c, d, e, f uint8) bool {
		once := Policy{
			MaxAttempts: ints[pick(a, len(ints))],
			BaseDelay:   durs[pick(b, len(durs))],
			MaxDelay:    durs[pick(c, len(durs))],
			Multiplier:  floats[pick(d, len(floats))],
			Jitter:      floats[pick(e, len(floats))],
			Budget:      durs[pick(f, len(durs))],
		}.withDefaults()
		return once.withDefaults() == once
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDelaySchedule pins the exponential schedule with jitter forced to
// its extremes: rnd=0 keeps the deterministic floor, rnd→1 approaches
// the full delay, and growth caps at MaxDelay.
func TestDelaySchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Jitter: 0.5, MaxAttempts: 10}
	wantFloor := []time.Duration{5, 10, 20, 40, 40, 40} // ms, at rnd=0 (half of pre-jitter)
	for i, want := range wantFloor {
		if got := p.Delay(i+1, 0); got != want*time.Millisecond {
			t.Fatalf("Delay(%d, 0) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	// rnd close to 1 approaches the full pre-jitter delay.
	if got := p.Delay(2, 0.999999); got <= 15*time.Millisecond || got > 20*time.Millisecond {
		t.Fatalf("Delay(2, ~1) = %v, want just under 20ms", got)
	}
	// Jitter < 0 disables randomization entirely.
	noJitter := Policy{BaseDelay: 10 * time.Millisecond, Jitter: -1}
	if got := noJitter.Delay(1, 0.9); got != 10*time.Millisecond {
		t.Fatalf("jitter-free Delay = %v, want 10ms", got)
	}
}

// TestWaiterAttemptBudget: Next allows exactly MaxAttempts claims, and
// Wait refuses once attempts are exhausted.
func TestWaiterAttemptBudget(t *testing.T) {
	w := NewWaiter(Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, Jitter: -1}, nil)
	for i := 0; i < 3; i++ {
		if !w.Next() {
			t.Fatalf("Next refused attempt %d of 3", i+1)
		}
	}
	if w.Next() {
		t.Fatal("Next allowed a 4th attempt of 3")
	}
	if err := w.Wait(context.Background(), 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("Wait after exhausted attempts = %v, want ErrBudget", err)
	}
}

// TestWaiterSleepBudget: the cumulative sleep budget refuses a delay it
// cannot afford, without sleeping.
func TestWaiterSleepBudget(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 40 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		Jitter: -1, Budget: 50 * time.Millisecond}
	// rnd pinned to 0: were the no-jitter policy jittered after all, both
	// delays would halve to 20ms and fit the budget on every run.
	w := NewWaiter(p, func() float64 { return 0 })
	w.Next()
	if err := w.Wait(context.Background(), 0); err != nil {
		t.Fatalf("first wait: %v", err)
	}
	w.Next()
	start := time.Now()
	if err := w.Wait(context.Background(), 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget wait = %v, want ErrBudget", err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("over-budget wait slept instead of failing fast")
	}
}

// TestWaiterDeadlineAware: a context deadline shorter than the delay is
// refused immediately instead of slept through, and an already-done
// context surfaces its own error.
func TestWaiterDeadlineAware(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Minute, Jitter: -1, Budget: -1}
	w := NewWaiter(p, nil)
	w.Next()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := w.Wait(ctx, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("short-deadline wait = %v, want ErrBudget", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("short-deadline wait blocked")
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := w.Wait(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-context wait = %v, want context.Canceled", err)
	}
}

// TestWaiterRetryAfterFloor: a peer's Retry-After hint raises the delay
// floor above the policy's own schedule.
func TestWaiterRetryAfterFloor(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, Jitter: -1, Budget: time.Second}
	w := NewWaiter(p, nil)
	w.Next()
	start := time.Now()
	if err := w.Wait(context.Background(), 30*time.Millisecond); err != nil {
		t.Fatalf("floored wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("floored wait slept only %v, want >= 30ms", elapsed)
	}
}

// TestRetryAfter is the header-form table: delay-seconds (padded or
// not), HTTP-date (future, past), and every malformed/negative/absent
// shape — all of which must behave exactly like no header at all.
func TestRetryAfter(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	cases := []struct {
		name     string
		value    string
		min, max time.Duration
	}{
		{"seconds", "2", 2 * time.Second, 2 * time.Second},
		{"seconds-zero", "0", 0, 0},
		{"seconds-padded", "  3  ", 3 * time.Second, 3 * time.Second},
		{"seconds-plus-sign", "+2", 2 * time.Second, 2 * time.Second},
		{"http-date-future", future, 3 * time.Second, 5 * time.Second},
		{"http-date-past", past, 0, 0},
		{"absent", "", 0, 0},
		{"garbage-word", "soon", 0, 0},
		{"garbage-float", "1.5", 0, 0},
		{"garbage-units", "5s", 0, 0},
		{"negative", "-3", 0, 0},
		{"overflow", "99999999999999999999999", 0, 0},
		{"whitespace-only", "   ", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := RetryAfter(mk(tc.value))
			if got < tc.min || got > tc.max {
				t.Fatalf("RetryAfter(%q) = %v, want in [%v, %v]", tc.value, got, tc.min, tc.max)
			}
		})
	}
	if got := RetryAfter(nil); got != 0 {
		t.Fatalf("nil response = %v, want 0", got)
	}
}
