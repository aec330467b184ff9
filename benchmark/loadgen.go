package main

import (
	"time"
)

// job is one scheduled request of an open-loop step: what to send, where,
// and when it is due relative to the step's start.
type job struct {
	due  time.Duration
	kind int
	node int   // which cluster node the client addresses
	arg  int   // kind-specific: hot-box rank, slab index, PUT sequence number
	rnd  int64 // kind-specific seeded randomness (cold box position)
}

// rec is the outcome of one request. All times are milliseconds.
type rec struct {
	job
	ok     bool
	lat    float64 // completion − due: the open-loop latency, the one reported
	late   float64 // dispatch − due: how late the generator itself ran
	wait   float64 // send − dispatch: queued for a free connection
	out    outcome
	sendAt time.Time
	doneAt time.Time
}

// outcome is what the request function learned from the response.
type outcome struct {
	err      error
	cache    string // X-Stz-Cache
	local    bool   // served by the node addressed (no forward hop)
	rejected bool   // 503 pool_saturated
	readB    int64  // X-Stz-Read-Bytes
	ttfb     float64
	body     float64
}

// runOpenLoop sends jobs on their schedule over conns connections and
// returns one rec per job, in schedule order. The schedule is fixed before
// the clock starts: a dispatcher releases each job at its due time whether
// or not the system keeps up, conns workers take released jobs in order,
// and every latency is charged from the due time — so a stall is paid by
// every request that came due during it, not only by the one that hit it.
func runOpenLoop(jobs []job, conns int, do func(conn int, j job) outcome) []rec {
	type released struct {
		i  int
		at time.Time
	}
	// Sized to the schedule so the dispatcher never blocks on a slow system.
	queue := make(chan released, len(jobs))
	recs := make([]rec, len(jobs))
	start := time.Now().Add(5 * time.Millisecond) // room to park the workers

	done := make(chan struct{})
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for rel := range queue {
				j := jobs[rel.i]
				due := start.Add(j.due)
				sent := time.Now()
				out := do(c, j)
				fin := time.Now()
				recs[rel.i] = rec{job: j, ok: out.err == nil, out: out,
					lat: ms(fin.Sub(due)), late: ms(rel.at.Sub(due)), wait: ms(sent.Sub(rel.at)),
					sendAt: sent, doneAt: fin}
			}
		}(c)
	}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- released{i, time.Now()}
	}
	close(queue)
	for c := 0; c < conns; c++ {
		<-done
	}
	return recs
}

// stepVerdict is the pass/fail of one ladder step. A step passes when at
// least 95 % of the requests attempted completed correctly within the
// limit (a failed or refused request misses any limit, so this is p95 ≤
// limit with failures at +Inf), at most 0.1 % failed, and the backlog did
// not grow. The percentile is the highest with ten samples beyond it on the
// shortest step the run makes; p99 is reported beside it.
type stepVerdict struct {
	rate, achieved    float64
	attempted, failed int
	p95, p99          float64
	backlogGrowth     float64 // mean connection wait, last quarter − first quarter of a round's slice
	pass              bool
}

// judgeStep judges the records of one step. cuts holds the end of each
// round's slice in recs (nil: one slice): every slice starts with idle
// connections, so rate and backlog are taken slice by slice and pooled.
func judgeStep(recs []rec, cuts []int, rate, limitMs float64) stepVerdict {
	v := stepVerdict{rate: rate, attempted: len(recs)}
	if len(recs) == 0 {
		return v
	}
	if cuts == nil {
		cuts = []int{len(recs)}
	}
	var lats, head, tail []float64
	var busy float64
	within, from := 0, 0
	for _, to := range cuts {
		slice := recs[from:to]
		from = to
		if len(slice) == 0 {
			continue
		}
		last := slice[0].doneAt
		for _, r := range slice {
			if !r.ok {
				v.failed++
				continue
			}
			lats = append(lats, r.lat)
			if r.lat <= limitMs {
				within++
			}
			if r.doneAt.After(last) {
				last = r.doneAt
			}
		}
		// A slice that keeps up takes its n/rate seconds; one that does not
		// takes until its last response.
		busy += max(float64(len(slice))/rate, last.Sub(slice[0].sendAt).Seconds())
		if q := max(len(slice)/4, 1); len(slice) >= 2 {
			for _, r := range slice[:q] {
				head = append(head, r.wait)
			}
			for _, r := range slice[len(slice)-q:] {
				tail = append(tail, r.wait)
			}
		}
	}
	v.p95, v.p99 = quantile(lats, 0.95), quantile(lats, 0.99)
	v.achieved = float64(len(recs)-v.failed) / busy
	v.backlogGrowth = mean(tail) - mean(head)
	n := float64(len(recs))
	v.pass = float64(within) >= 0.95*n && float64(v.failed) <= 0.001*n && v.backlogGrowth <= limitMs/5
	return v
}
