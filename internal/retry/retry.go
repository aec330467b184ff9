// Package retry implements jittered exponential backoff for the stzd
// cluster tier's failure-aware routing: the replica router walks an
// archive's owner list and sleeps a growing, randomized delay between
// attempts, bounded by a total sleep budget and the request's own
// context deadline, and never less than a peer's Retry-After hint. The
// policy is pure arithmetic (Delay) so tests pin exact schedules; the
// stateful Waiter layers budget and deadline accounting on top.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Policy describes one backoff schedule. The zero value is usable:
// every field falls back to the default noted on it.
type Policy struct {
	// MaxAttempts bounds the total attempts of one operation (first try
	// included). Default 4.
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry. Default
	// 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay growth. Default 1s.
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive retries. Default 2.
	Multiplier float64
	// Jitter is the randomized fraction of each delay in [0, 1]: the
	// slept delay is d*(1-Jitter) + d*Jitter*rand. Default 0.5 (equal
	// jitter); negative disables jitter entirely.
	Jitter float64
	// Budget bounds the total time spent sleeping across all retries of
	// one operation. Default 2s; negative means unlimited.
	Budget time.Duration
}

// withDefaults is idempotent: the sentinel values that mean "none"
// (negative Jitter, negative Budget) are fixed points, so a policy
// normalised once — by NewWaiter — stays the same policy.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Budget == 0 {
		p.Budget = 2 * time.Second
	}
	return p
}

// Delay computes the jittered delay before retry n (n = 1 is the first
// retry). rnd must be in [0, 1); it scales the jittered fraction, so a
// fixed rnd pins the schedule exactly.
func (p Policy) Delay(n int, rnd float64) time.Duration {
	return p.withDefaults().delay(n, rnd)
}

// delay is Delay on an already normalised policy.
func (p Policy) delay(n int, rnd float64) time.Duration {
	if n < 1 {
		n = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	}
	return time.Duration(d*(1-j) + d*j*rnd)
}

// ErrBudget reports a retry loop that exhausted its attempt count or
// sleep budget.
var ErrBudget = errors.New("retry budget exhausted")

// Waiter tracks one operation's retries against a Policy: how many
// attempts have started and how much of the sleep budget is spent. Not
// safe for concurrent use; create one per operation.
type Waiter struct {
	p       Policy
	rnd     func() float64 // in [0, 1)
	attempt int            // attempts started
	slept   time.Duration
}

// NewWaiter starts an operation under p. rnd supplies jitter draws in
// [0, 1); nil uses the global math/rand source.
func NewWaiter(p Policy, rnd func() float64) *Waiter {
	if rnd == nil {
		rnd = rand.Float64
	}
	return &Waiter{p: p.withDefaults(), rnd: rnd}
}

// Next claims the next attempt, reporting false when the policy's
// attempt count is exhausted. The first call is the initial (non-retry)
// attempt and always succeeds.
func (w *Waiter) Next() bool {
	if w.attempt >= w.p.MaxAttempts {
		return false
	}
	w.attempt++
	return true
}

// Attempt reports how many attempts have been claimed.
func (w *Waiter) Attempt() int { return w.attempt }

// Wait sleeps the backoff before the next attempt: the policy delay for
// this retry, raised to floor when a peer supplied a Retry-After hint.
// It returns ErrBudget without sleeping when the sleep budget (or the
// attempt count) is exhausted or ctx's deadline cannot accommodate the
// delay, and ctx.Err() when the context is done — in every error case
// the caller should stop retrying.
func (w *Waiter) Wait(ctx context.Context, floor time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.attempt >= w.p.MaxAttempts {
		return ErrBudget
	}
	d := w.p.delay(w.attempt, w.rnd())
	if d < floor {
		d = floor
	}
	if w.p.Budget >= 0 && w.slept+d > w.p.Budget {
		return ErrBudget
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return ErrBudget
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		w.slept += d
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfter parses a response's Retry-After header — delay-seconds or
// an HTTP-date — into a wait floor. A malformed, negative, or past
// value is treated exactly like an absent header: zero floor, so the
// caller's own backoff schedule applies unmodified. Whitespace padding
// around an otherwise valid value is tolerated. Never negative.
func RetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
