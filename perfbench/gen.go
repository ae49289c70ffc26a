package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The four workloads. Each stresses a different rung of the layer ladder;
// README.md records why each exists and which per-layer metric should move
// which end-to-end metric on it.
const (
	scaleDecay     = "scale-decay"
	recursiveSweep = "recursive-sweep"
	distCheckpoint = "dist-checkpoint"
	serveMixed     = "serve-mixed"
)

var workloads = []string{scaleDecay, recursiveSweep, distCheckpoint, serveMixed}

// defaultRoot is the root seed every generated spec declares. Round 0 of a
// batch workload and the first cold job of serve-mixed run at it, so their
// trials.jsonl digests can be pinned (pins.go).
const defaultRoot = 1

// size scales a workload's inputs: full for measurement, tiny for tests.
type size int

const (
	full size = iota
	tiny
)

// Spec documents, mirroring the program's JSON spec schema. Only the fields
// the generated workloads use are declared.
type specFile struct {
	Name      string         `json:"name"`
	Seed      uint64         `json:"seed"`
	Scenarios []specScenario `json:"scenarios"`
}

type specScenario struct {
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm"`
	Cost      string             `json:"cost,omitempty"`
	Params    map[string]float64 `json:"params,omitempty"`
	Trials    int                `json:"trials"`
	Instances []specInstance     `json:"instances"`
}

type specInstance struct {
	Family  string `json:"family"`
	N       int    `json:"n"`
	MaxDist int    `json:"maxDist,omitempty"`
}

// inputs is everything a run of one workload feeds the program, generated
// from the workload seed alone.
type inputs struct {
	Workload string `json:"workload"`
	// Spec is the batch workloads' spec file.
	Spec []byte `json:"spec,omitempty"`
	// Roots lists the root seed of each timed round: round 0 at the pinned
	// default, the rest at one root derived from the workload seed.
	Roots []uint64 `json:"roots,omitempty"`
	// Templates are serve-mixed's cold-job specs; Plan is its per-client
	// closed-loop operation sequence.
	Templates [][]byte `json:"templates,omitempty"`
	Plan      [][]op   `json:"plan,omitempty"`
}

// op is one serve-mixed submission: a template at a root seed. A cold op's
// (template, seed) pair is new to the daemon; a hit re-submits a pair the
// same client has already seen complete, so it is a cache hit by
// construction, never by timing.
type op struct {
	Cold bool   `json:"cold"`
	Tmpl int    `json:"tmpl"`
	Seed uint64 `json:"seed"`
}

// splitmix64 is the generator's only randomness source.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derivedRoot maps a workload seed to a root seed that is never 0 (the
// program's "use the spec's seed") nor the pinned default.
func derivedRoot(workload string, seed uint64) uint64 {
	s := splitmix64(seed ^ tag(workload))
	for {
		if r := s.next() >> 1; r > defaultRoot {
			return r
		}
	}
}

func tag(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// rounds is how many timed rounds a batch workload runs in a budget of
// seconds: the budget over the round's nominal wall time on a 2-core host,
// and never fewer than three (the pinned round plus two seeded rounds whose
// digests must agree).
func rounds(workload string, seconds int) int {
	nominalMs := map[string]int{scaleDecay: 6500, recursiveSweep: 4000, distCheckpoint: 4000}[workload]
	r := (seconds*1000 + nominalMs/2) / nominalMs
	return max(r, 3)
}

// Serve-mixed sizing: cold jobs per second of budget, and cache hits per
// cold job. At 20 s this gives 700 cold jobs and 7000 hits, well above the
// 100 and 1000 the p90 and p99 need.
const (
	coldPerSecond = 35
	hitsPerCold   = 10
	minCold       = 100
)

func generate(workload string, seed uint64, seconds int, sz size, clients int) (*inputs, error) {
	in := &inputs{Workload: workload}
	switch workload {
	case scaleDecay, recursiveSweep, distCheckpoint:
		f := batchSpec(workload, sz)
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return nil, err
		}
		in.Spec = b
		n := rounds(workload, seconds)
		if sz == tiny {
			n = 3
		}
		in.Roots = append(in.Roots, defaultRoot)
		for i := 1; i < n; i++ {
			in.Roots = append(in.Roots, derivedRoot(workload, seed))
		}
	case serveMixed:
		for _, t := range serveTemplates() {
			b, err := json.Marshal(t)
			if err != nil {
				return nil, err
			}
			in.Templates = append(in.Templates, b)
		}
		cold := max(minCold, coldPerSecond*seconds)
		if sz == tiny {
			cold = 2 * clients
		}
		in.Plan = servePlan(seed, cold, hitsPerCold, clients, len(in.Templates))
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", workload, workloads)
	}
	return in, nil
}

// servePlan splits cold cold jobs and cold*hitsPer hits across clients.
// Every client starts cold; after each cold job it issues hitsPer hits,
// each re-submitting a uniformly chosen pair that client already completed.
// Client 0's first job is template 0 at the pinned default root.
func servePlan(seed uint64, cold, hitsPer, clients, templates int) [][]op {
	rng := splitmix64(seed ^ tag(serveMixed))
	base := rng.next()>>24 + defaultRoot + 1
	plan := make([][]op, clients)
	for i := 0; i < cold; i++ {
		c := i % clients
		o := op{Cold: true, Tmpl: i % templates, Seed: base + uint64(i)}
		if i == 0 {
			o.Seed = defaultRoot
		}
		plan[c] = append(plan[c], o)
		var done []op
		for _, p := range plan[c] {
			if p.Cold {
				done = append(done, p)
			}
		}
		for h := 0; h < hitsPer; h++ {
			p := done[rng.next()%uint64(len(done))]
			plan[c] = append(plan[c], op{Tmpl: p.Tmpl, Seed: p.Seed})
		}
	}
	return plan
}

func batchSpec(workload string, sz size) specFile {
	f := specFile{Name: workload, Seed: defaultRoot}
	switch workload {
	case scaleDecay:
		// Decay under the physical cost model on both sides of the harness
		// shard threshold (2^17): star is the dense kernel's case, tree and
		// grid the sparse CSR path's.
		big, bigGnp, small := 1<<18, 1<<17, 1<<15
		if sz == tiny {
			big, bigGnp, small = 1<<11, 1<<10, 1<<9
		}
		var insts []specInstance
		for _, n := range []int{big, small} {
			gn := n
			if n == big {
				gn = bigGnp
			}
			insts = append(insts,
				specInstance{"star", n, 4}, specInstance{"tree", n, 10},
				specInstance{"grid", n, 32}, specInstance{"gnp", gn, 12})
		}
		f.Scenarios = []specScenario{{Name: workload, Algorithm: "decay", Cost: "physical",
			Params: map[string]float64{"passes": 2}, Trials: 1, Instances: insts}}
	case recursiveSweep:
		// Recursive-BFS under the unit cost model: the core stack and the
		// harness trial pool do the work; the radio engine does none.
		trials, a, b := 5, 2048, 4096
		if sz == tiny {
			trials, a, b = 2, 128, 256
		}
		f.Scenarios = []specScenario{{Name: workload, Algorithm: "recursive", Trials: trials,
			Instances: []specInstance{{"cycle", a, 0}, {"geometric", a, 0}, {"gnp", b, 0}, {"grid", b, 0}}}}
	case distCheckpoint:
		// Thousands of tiny trials, so coordination, frames and journal
		// appends dominate the wall time.
		rec, dec := 2500, 5000
		if sz == tiny {
			rec, dec = 20, 40
		}
		f.Scenarios = []specScenario{
			{Name: "rec", Algorithm: "recursive", Trials: rec,
				Instances: []specInstance{{"grid", 64, 0}, {"cycle", 64, 0}}},
			{Name: "dec", Algorithm: "decay", Trials: dec,
				Instances: []specInstance{{"gnp", 256, 0}}},
		}
	}
	return f
}

// serveTemplates are serve-mixed's cold-job specs, each about 10-40 ms of
// trials on a 2-core host. They declare no seed: the submission's ?seed=
// picks the root.
func serveTemplates() []specFile {
	return []specFile{
		{Name: "cold-rec", Scenarios: []specScenario{{Name: "rec", Algorithm: "recursive", Trials: 2,
			Instances: []specInstance{{"cycle", 256, 0}, {"grid", 256, 0}}}}},
		{Name: "cold-decay", Scenarios: []specScenario{{Name: "dec", Algorithm: "decay", Cost: "physical",
			Params: map[string]float64{"passes": 2}, Trials: 2,
			Instances: []specInstance{{"tree", 4096, 10}, {"gnp", 2048, 8}}}}},
		{Name: "cold-geo", Scenarios: []specScenario{{Name: "geo", Algorithm: "recursive", Trials: 2,
			Instances: []specInstance{{"geometric", 512, 0}}}}},
	}
}

// withSeed returns a copy of a template spec with its root seed embedded,
// renamed so several can share one reference run's output directory.
func withSeed(tmpl []byte, name string, seed uint64) ([]byte, error) {
	var f map[string]any
	d := json.NewDecoder(bytes.NewReader(tmpl))
	d.UseNumber()
	if err := d.Decode(&f); err != nil {
		return nil, err
	}
	f["name"] = name
	f["seed"] = seed
	return json.Marshal(f)
}
