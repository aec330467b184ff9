package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pins.json is the pinned, declarative side of the benchmark: the workload
// table, every frozen parameter (grid sizes, cluster shape, ladders, latency
// limits) and the environment and checksums the committed numbers were
// taken with. It is embedded so the binary carries the table it ran.
//
//go:embed pins.json
var pinsJSON []byte

// Params is the workload spec: everything that sizes a run. The committed
// values live in pins.json; the tests shrink Dim to 32 and the rates to a
// trickle through this struct, not through flags.
type Params struct {
	Seconds      int `json:"seconds"`       // timed window of one run
	SetupRepeats int `json:"setup_repeats"` // set-ups per untraced run; setup_s is the fastest
	// Every stage gets StageShare of the window on every workload, and the
	// workload's own stage FocusShare on top; the shares sum to 1. The base
	// shares give every stage 40-100 calls of each operation a metric is made
	// of: a metric is as steady as the calls behind it are many.
	StageShare [numStages]float64 `json:"stage_share"`
	FocusShare float64            `json:"focus_share"`
	// The window is dealt out in Rounds rounds of one slice of every stage,
	// so every stage samples the whole window (see env.pass). A multiple of
	// four: the outer ladder steps run in every fourth round.
	Rounds int `json:"rounds"`

	NyxSeed  int64   `json:"nyx_seed"`  // datasets seed of the pinned rough field
	Dim      int     `json:"dim"`       // field edge: Dim³ float32
	Box      int     `json:"box"`       // ROI edge ("32³ box")
	SmallBox int     `json:"small_box"` // fixed-cost-floor ROI edge ("8³ box")
	RawDim   int     `json:"raw_dim"`   // edge of the raw grid POSTed to /v1/compress
	Chunks   int     `json:"chunks"`    // z-slabs of every registry archive
	Workers  int     `json:"workers"`   // library-side worker count
	RelEB    float64 `json:"rel_eb"`    // value-range-relative error bound

	Nodes           int     `json:"nodes"`
	Replicas        int     `json:"replicas"`
	NodeWorkers     int     `json:"node_workers"`
	MaxInflight     int     `json:"max_inflight"`
	BoxCacheBudget  int64   `json:"box_cache_budget"`
	AntiEntropySecs float64 `json:"anti_entropy_s"`
	Conns           int     `json:"conns"` // client connections = requests in flight

	HotBoxes    int     `json:"hot_boxes"`
	ZipfS       float64 `json:"zipf_s"`
	PutIDs      int     `json:"put_ids"`
	SampleEvery int     `json:"sample_every"` // 1-in-N read bodies byte-compared with a local decode

	// Open-loop ladders in requests/s (L1 < L2 < L3, about 10/20/30 % of
	// the closed-loop saturation rate with Conns clients on the seed
	// machine) and the p95 limit a step must meet.
	ReadLadder    [3]float64 `json:"read_ladder"`
	IngestLadder  [3]float64 `json:"ingest_ladder"`
	ReadLimitMs   float64    `json:"read_limit_ms"`
	IngestLimitMs float64    `json:"ingest_limit_ms"`
}

// The four stages every run executes. A workload is a mix of them weighted
// to its namesake, its focus stage.
const (
	stageField = iota
	stageStream
	stageRead
	stageIngest
	numStages
)

var stageNames = [numStages]string{"field", "stream", "read", "ingest"}

// Workload is one row of the workload table.
type Workload struct {
	Name  string `json:"name"`
	Focus string `json:"focus"` // a stageNames entry
	Why   string `json:"why"`
}

func (w Workload) focus() int {
	for i, n := range stageNames {
		if n == w.Focus {
			return i
		}
	}
	return -1
}

// Pins is the decoded pins.json.
type Pins struct {
	GoVersion string     `json:"go_version"`
	NProc     int        `json:"nproc"`
	Params    Params     `json:"params"`
	Workloads []Workload `json:"workloads"`
	// Checksums are FNV-64a digests: Corpus of the generated fields (a
	// mismatch refuses the run), Archives of the encoded bytes (a mismatch
	// is printed as a note). The Nyx field is the same on every seed; the
	// rest can only be compared at seed Seed.
	Checksums struct {
		Seed     int64             `json:"seed"`
		Corpus   map[string]string `json:"corpus"`
		Archives map[string]string `json:"archives"`
	} `json:"checksums"`
}

func loadPins() (Pins, error) {
	var p Pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	if p.Params.Rounds < 4 || p.Params.Rounds%4 != 0 {
		return p, fmt.Errorf("pins.json: rounds is %d, want a multiple of four", p.Params.Rounds)
	}
	for _, w := range p.Workloads {
		if w.focus() < 0 {
			return p, fmt.Errorf("pins.json: workload %q has unknown focus %q", w.Name, w.Focus)
		}
	}
	return p, nil
}

func (p Pins) workload(name string) (Workload, bool) {
	for _, w := range p.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// stageSeconds splits a window of total seconds between the stages for a
// workload focused on stage focus.
func (p Params) stageSeconds(focus int, total float64) [numStages]float64 {
	var out [numStages]float64
	for i, share := range p.StageShare {
		out[i] = total * share
	}
	out[focus] += total * p.FocusShare
	return out
}
