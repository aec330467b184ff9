package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smallParams is the committed spec shrunk to 32³ grids and a trickle of
// requests, so a whole run fits in about a second.
func smallParams(t *testing.T) (Pins, Params) {
	t.Helper()
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	p := pins.Params
	p.Dim, p.Box, p.SmallBox, p.RawDim = 32, 8, 2, 16
	p.HotBoxes, p.SetupRepeats = 8, 1
	p.ReadLadder = [3]float64{100, 200, 300}
	p.IngestLadder = [3]float64{100, 200, 300}
	return pins, p
}

func TestOpenLoopChargesStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate    = 200.0
		stallAt = 20
		stall   = 200 * time.Millisecond
		service = time.Millisecond
	)
	jobs := make([]job, 100)
	for i := range jobs {
		jobs[i] = job{due: time.Duration(float64(i) / rate * float64(time.Second)), arg: i}
	}
	recs := runOpenLoop(jobs, 1, func(_ int, j job) outcome {
		if j.arg == stallAt {
			time.Sleep(stall)
		}
		time.Sleep(service)
		return outcome{}
	})
	stallEnd := jobs[stallAt].due + stall
	charged := 0
	for _, r := range recs {
		if r.due < jobs[stallAt].due || r.due >= stallEnd {
			continue
		}
		charged++
		// The request could not complete before the stall ended, and it was
		// due at r.due: the open-loop clock must show at least the gap.
		if want := ms(stallEnd - r.due); r.lat < want {
			t.Errorf("request due %v during the stall: latency %.1f ms, want at least %.1f ms", r.due, r.lat, want)
		}
	}
	if want := int(stall.Seconds() * rate); charged < want {
		t.Fatalf("only %d requests fell in the stall, want %d", charged, want)
	}
	// After the backlog drains the charge ends.
	if last := recs[len(recs)-1]; last.lat > 50 {
		t.Errorf("last request still shows %.1f ms: the backlog never drained", last.lat)
	}
	v := judgeStep(recs, nil, rate, 50)
	if v.pass {
		t.Error("a step with 40 % of its requests beyond the limit passed")
	}
}

func TestBestIsTheSecondFastestCall(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 3, 5}, 5}, {[]float64{4, 0.1, 4.2, 4.1, 9}, 4}} {
		if got := best(c.in); got != c.want {
			t.Errorf("best(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// Slices of a step start with idle connections: a backlog that builds inside
// every slice must show, and the gap between slices must not count as time
// the step took.
func TestJudgeStepPoolsSlices(t *testing.T) {
	t0 := time.Unix(0, 0)
	var recs []rec
	var cuts []int
	for s := 0; s < 4; s++ {
		start := t0.Add(time.Duration(s) * time.Minute) // a minute of other stages between slices
		for i := 0; i < 10; i++ {
			sent := start.Add(time.Duration(i) * 10 * time.Millisecond)
			recs = append(recs, rec{ok: true, lat: 1, wait: float64(i), sendAt: sent, doneAt: sent.Add(time.Millisecond)})
		}
		cuts = append(cuts, len(recs))
	}
	v := judgeStep(recs, cuts, 100, 50)
	if v.achieved < 99 || v.achieved > 101 {
		t.Errorf("achieved %.1f/s, want the offered 100/s: the gaps between slices were counted", v.achieved)
	}
	if v.backlogGrowth != 8 { // waits 8,9 at the end of every slice against 0,1 at its start
		t.Errorf("backlog growth %.1f ms, want 8", v.backlogGrowth)
	}
	if !v.pass {
		t.Error("a step inside its limit failed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &Tracer{t0: at(0)}
	root := tr.Add(0, 1, "root", at(0), at(100))
	a := tr.Add(root, 1, "a", at(10), at(30))
	tr.Add(root, 1, "b", at(20), at(50))  // overlaps a: counted once
	tr.Add(root, 1, "c", at(90), at(120)) // clipped to the parent
	tr.Add(a, 1, "leaf", at(12), at(17))  // grandchild: only a's self shrinks
	tr.AddSeq(0, 2, at(200), []string{"x", "skipped", "y"}, []time.Duration{time.Millisecond, 0, 2 * time.Millisecond})
	self := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, "a": 15 * time.Millisecond, "b": 30 * time.Millisecond,
		"c": 30 * time.Millisecond, "leaf": 5 * time.Millisecond, "x": time.Millisecond, "y": 2 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := coverFrac(tr.spans, "root"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("cover fraction %g, want 0.5", got)
	}
	var nilTracer *Tracer
	if nilTracer.Add(0, nilTracer.NewOp(), "x", at(0), at(1)) != 0 {
		t.Error("nil tracer recorded a span")
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	_, p := smallParams(t)
	sched := func(seed int64) []job {
		s := &serve{r: &run{p: p}}
		return s.schedule(newDealer(readMix, p, rand.New(rand.NewSource(seed))), 500, time.Second)
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	var kinds [numKinds]int
	for _, j := range a {
		kinds[j.kind]++
		if j.kind == kHot && (j.arg < 0 || j.arg >= p.HotBoxes) {
			t.Fatalf("hot rank %d outside [0,%d)", j.arg, p.HotBoxes)
		}
	}
	if kinds[kHot] < 300 || kinds[kCold] < 60 || kinds[kSection] < 25 || kinds[kPut] != 0 {
		t.Errorf("read mix drew %v, want about 70/20/10 %% of 500 and no writes", kinds)
	}
	if b1, b2 := randBox(rand.New(rand.NewSource(3)), 128, 32), randBox(rand.New(rand.NewSource(3)), 128, 32); b1 != b2 {
		t.Errorf("randBox not deterministic: %v vs %v", b1, b2)
	}
	in1, err := makeInputs(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := makeInputs(p, 5)
	c1, a1 := in1.checksums()
	c2, a2 := in2.checksums()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(in1.HotBox, in2.HotBox) {
		t.Error("same seed, different inputs")
	}
	if want := [2]string{"Nyx-32x32x32-s1001", "Miranda-32x32x32-s1005"}; in1.Names != want {
		t.Errorf("corpus names %q, want %q: Nyx pinned, Miranda at 1000+seed", in1.Names, want)
	}
}

func TestContractMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds != pins.Params.Seconds {
		t.Errorf("paths %v run_seconds %d, want [benchmark] %d", doc.Paths, doc.RunSeconds, pins.Params.Seconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
			t.Errorf("%s: unit %q or direction %q is malformed", name, unit, better)
		}
	}
	if len(doc.Workloads) != len(pins.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in pins.json", len(doc.Workloads), len(pins.Workloads))
	}
	for i, w := range pins.Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, pins.json %q (or the why differs)", i, doc.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		check(d.Name, d.Unit, d.Better)
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] is %+v, metrics.go has %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		e := doc.PerLayer[i]
		check(d.Name, d.Unit, d.Better)
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer[%d] is %+v, metrics.go has %+v", i, e, d)
		}
	}
}

// flipTransport corrupts one byte of every box response body.
type flipTransport struct{ next http.RoundTripper }

func (f flipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/box") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body[len(body)/2] ^= 0x01
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func TestCorruptedResponseFailsTheGate(t *testing.T) {
	pins, p := smallParams(t)
	p.SampleEvery = 1
	e, err := setUp(pins, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var secs [numStages]float64
	secs[stageRead] = 0.2
	if r, _, err := e.pass(p, nil, secs); err != nil || len(r.gateFails) > 0 {
		t.Fatalf("clean pass: err %v, gate failures %v", err, r.gateFails)
	}
	for _, c := range e.srv.clients {
		c.Transport = flipTransport{c.Transport}
	}
	r, _, err := e.pass(p, nil, secs)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{Correct: true}
	rep.absorb(r)
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("one flipped bit per body went unnoticed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func TestEveryWorkloadRunsEndToEnd(t *testing.T) {
	pins, p := smallParams(t)
	t.Chdir(t.TempDir()) // the traced run writes benchmark/out/ under the working directory
	for _, w := range pins.Workloads {
		for _, trace := range []bool{false, true} {
			seconds := 1.0
			if trace {
				seconds = 0.4 // the probes run on top of the window
			}
			rep, err := execute(pins, p, w, 3, seconds, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
					t.Errorf("%s trace=%v: %s is %g", w.Name, trace, d.Name, v.v)
				}
				if !trace && (!ok || v.v <= 0) {
					t.Errorf("%s: end-to-end metric %s is %g, must be measured and never 0", w.Name, d.Name, v.v)
				}
			}
			if trace {
				if _, err := os.Stat("benchmark/out/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
				if strings.HasPrefix(w.Name, "serve-") && rep.Metrics["core.roi32_ms"].v != 0 {
					t.Errorf("%s reports core.roi32_ms: stzd never imports core", w.Name)
				}
			}
		}
	}
}
