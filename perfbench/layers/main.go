// Command layers is perfbench's in-process probe of the program's layers.
// It times calls into each layer's public functions — repro.NewGraph,
// repro.NewNetworkE and Algorithm.Run, spec.Compile, spec.ExecuteFile and
// Output.WriteArtifacts, journal.Create and Append — and prints one JSON
// object of per-layer metrics. perfbench runs it only in traced runs.
//
//	layers -spec F -root R -workers N -out DIR   traced spec execution
//	layers -suite -nproc N -dir DIR               graph, radio, decay, core,
//	                                              harness, journal and CPU shares
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/radio"
	"repro/internal/spec"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Metrics map[string]metric `json:"metrics"`
	Samples map[string]int    `json:"samples"`
	// Digest is the SHA-256 of trials.jsonl (spec mode).
	Digest string `json:"digest,omitempty"`
	// Failures lists correctness checks that did not hold.
	Failures []string `json:"failures,omitempty"`
}

func (o *output) set(name, unit string, v float64, n int) {
	o.Metrics[name] = metric{v, unit}
	o.Samples[name] = n
}

func main() {
	specPath := flag.String("spec", "", "spec file to execute traced")
	root := flag.Uint64("root", 0, "root seed for -spec (0 = the spec's own)")
	workers := flag.Int("workers", runtime.NumCPU(), "trial workers")
	out := flag.String("out", "", "artifact directory for -spec")
	suite := flag.Bool("suite", false, "run the layer suite")
	dir := flag.String("dir", "", "scratch directory for -suite (journal file, CPU profile)")
	flag.Parse()
	o := &output{Metrics: map[string]metric{}, Samples: map[string]int{}}
	var err error
	switch {
	case *specPath != "":
		err = tracedSpec(o, *specPath, *root, *workers, *out)
	case *suite:
		err = layerSuite(o, *workers, *dir)
	default:
		err = fmt.Errorf("need -spec or -suite")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	json.NewEncoder(os.Stdout).Encode(o)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// compileReps is how many times spec.compile_ms parses and compiles the
// spec; the metric is their mean.
const compileReps = 21

// tracedSpec executes a spec file the way `radiobfs run` does, with a span
// around each layer call.
func tracedSpec(o *output, path string, root uint64, workers int, out string) error {
	var compile time.Duration
	var f *spec.File
	for i := 0; i < compileReps; i++ {
		t := time.Now()
		var err error
		if f, err = spec.ParseFile(path); err != nil {
			return err
		}
		if _, err := spec.Compile(f, spec.Options{}); err != nil {
			return err
		}
		compile += time.Since(t)
	}
	o.set("spec.compile_ms", "ms", ms(compile)/compileReps, compileReps)

	var trials atomic.Int64
	t := time.Now()
	res, err := spec.ExecuteFile(f, workers, root, spec.Options{OnTrial: func(harness.Result) { trials.Add(1) }})
	if err != nil {
		return err
	}
	t = time.Now()
	dir, err := res.WriteArtifacts(out)
	if err != nil {
		return err
	}
	o.set("spec.write_ms", "ms", ms(time.Since(t)), 1)
	var kb float64
	for _, name := range []string{spec.TrialsArtifact, spec.CSVArtifact, spec.MarkdownArtifact, spec.ManifestArtifact} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		kb += float64(st.Size()) / 1024
	}
	o.set("spec.artifact_kb", "KiB", kb, 1)
	b, err := os.ReadFile(filepath.Join(dir, spec.TrialsArtifact))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	o.Digest = hex.EncodeToString(sum[:])
	if n := int(trials.Load()); n != len(res.Results) || res.Errors() > 0 {
		o.Failures = append(o.Failures, fmt.Sprintf("spec run settled %d of %d trials with %d errors", n, len(res.Results), res.Errors()))
	}
	return nil
}

// The suite's fixed inputs. They use fixed seeds, not the workload seed,
// so counts such as radio.awake_slots.* repeat exactly across runs and
// commits.
const suiteSeed = 1

// radioCases are scale-decay's large instances: Decay BFS, physical cost
// model, two passes.
var radioCases = []struct {
	family     string
	n, maxDist int
}{{"star", 1 << 18, 4}, {"tree", 1 << 18, 10}, {"grid", 1 << 18, 32}, {"gnp", 1 << 17, 12}}

// buildCases are every scale-decay instance graph, for graph.build_ms.
var buildCases = []struct {
	family string
	n      int
}{{"star", 1 << 18}, {"tree", 1 << 18}, {"grid", 1 << 18}, {"gnp", 1 << 17},
	{"star", 1 << 15}, {"tree", 1 << 15}, {"grid", 1 << 15}, {"gnp", 1 << 15}}

// coreCases are recursive-sweep's instances: Recursive-BFS, unit cost.
var coreCases = []struct {
	family string
	n      int
}{{"cycle", 2048}, {"geometric", 2048}, {"gnp", 4096}, {"grid", 4096}}

const coreTrials = 2

func layerSuite(o *output, nproc int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var build time.Duration
	for _, c := range buildCases {
		t := time.Now()
		if _, err := repro.NewGraph(c.family, c.n, suiteSeed); err != nil {
			return err
		}
		build += time.Since(t)
	}
	o.set("graph.build_ms", "ms", ms(build), len(buildCases))

	prof := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	err = radioProbes(o, nproc)
	if err == nil {
		err = coreProbes(o)
	}
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.set("cpu."+name, "share", shares[name], samples)
	}
	if err := harnessProbe(o, nproc, dir); err != nil {
		return err
	}
	return journalProbe(o, dir)
}

type decayRun struct {
	d             time.Duration
	awake, rounds int64
	labels        []int32
}

func runDecay(g *repro.Graph, maxDist int, opts ...radio.Option) (decayRun, error) {
	eng := radio.NewEngine(g, opts...)
	nw, err := repro.NewNetworkE(g, suiteSeed, repro.WithEngine(eng), repro.WithCostModel(repro.CostPhysical), repro.WithDecayPasses(2))
	if err != nil {
		return decayRun{}, err
	}
	alg, err := repro.Get("decay")
	if err != nil {
		return decayRun{}, err
	}
	t := time.Now()
	res, err := alg.Run(context.Background(), nw, repro.Request{MaxDist: maxDist})
	if err != nil {
		return decayRun{}, err
	}
	return decayRun{time.Since(t), eng.TotalEnergy(), eng.Round(), res.Labels}, nil
}

// radioProbes runs each scale-decay family three ways — default kernels,
// dense kernel disabled, and sharded across nproc — and requires the three
// to agree on every label and meter.
func radioProbes(o *output, nproc int) error {
	for _, c := range radioCases {
		g, err := repro.NewGraph(c.family, c.n, suiteSeed)
		if err != nil {
			return err
		}
		base, err := runDecay(g, c.maxDist)
		if err != nil {
			return err
		}
		sparse, err := runDecay(g, c.maxDist, radio.WithDenseMin(-1))
		if err != nil {
			return err
		}
		sharded, err := runDecay(g, c.maxDist, radio.WithShards(nproc))
		if err != nil {
			return err
		}
		for _, v := range []decayRun{sparse, sharded} {
			if v.awake != base.awake || v.rounds != base.rounds || !equalLabels(v.labels, base.labels) {
				o.Failures = append(o.Failures, fmt.Sprintf("%s: kernel variants disagree (awake %d vs %d, rounds %d vs %d)", c.family, v.awake, base.awake, v.rounds, base.rounds))
			}
		}
		f := c.family
		o.set("decay.trial_ms."+f, "ms", ms(base.d), 1)
		o.set("radio.awake_slots."+f, "count", float64(base.awake), 1)
		o.set("radio.phys_rounds."+f, "count", float64(base.rounds), 1)
		o.set("radio.ns_per_awake_slot."+f, "ns", float64(base.d.Nanoseconds())/float64(base.awake), 1)
		o.set("radio.dense_speedup."+f, "x", sparse.d.Seconds()/base.d.Seconds(), 2)
		o.set("radio.shard_speedup."+f, "x", base.d.Seconds()/sharded.d.Seconds(), 2)
	}
	return nil
}

func equalLabels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coreProbes runs Recursive-BFS under the unit cost model, where the core
// stack does all the work and the radio engine none.
func coreProbes(o *output) error {
	alg, err := repro.Get("recursive")
	if err != nil {
		return err
	}
	for _, c := range coreCases {
		var d time.Duration
		var lb int64
		var alloc uint64
		for i := 0; i < coreTrials; i++ {
			seed := uint64(suiteSeed + i)
			g, err := repro.NewGraph(c.family, c.n, seed)
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t := time.Now()
			nw, err := repro.NewNetworkE(g, seed)
			if err != nil {
				return err
			}
			res, err := alg.Run(context.Background(), nw, repro.Request{})
			if err != nil {
				return err
			}
			d += time.Since(t)
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			lb += res.Cost.TotalLBEnergy
			if bad := nw.VerifyLabeling(res.Labels, c.n); bad != 0 {
				o.Failures = append(o.Failures, fmt.Sprintf("core %s: %d vertices mislabeled", c.family, bad))
			}
		}
		f := c.family
		o.set("core.trial_ms."+f, "ms", ms(d)/coreTrials, coreTrials)
		o.set("core.ns_per_lb_energy."+f, "ns", float64(d.Nanoseconds())/float64(lb), coreTrials)
		o.set("core.alloc_mb_per_trial."+f, "MB", float64(alloc)/coreTrials/(1<<20), coreTrials)
	}
	return nil
}

// harnessProbe runs a recursive-sweep-shaped spec sequentially and on
// nproc workers: parallel efficiency is the sequential wall over nproc
// times the parallel wall.
func harnessProbe(o *output, nproc int, dir string) error {
	f := &spec.File{Name: "harness-probe", Scenarios: []spec.Scenario{{Name: "recursive-sweep", Algorithm: "recursive", Trials: coreTrials}}}
	for _, c := range coreCases {
		f.Scenarios[0].Instances = append(f.Scenarios[0].Instances, harness.Instance{Family: c.family, N: c.n})
	}
	var walls [2]time.Duration
	var digests [2]string
	for i, w := range []int{1, nproc} {
		t := time.Now()
		res, err := spec.ExecuteFile(f, w, suiteSeed, spec.Options{})
		if err != nil {
			return err
		}
		walls[i] = time.Since(t)
		b, err := json.Marshal(res.Results)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		digests[i] = hex.EncodeToString(sum[:])
	}
	if digests[0] != digests[1] {
		o.Failures = append(o.Failures, "harness results differ between 1 and nproc workers")
	}
	o.set("harness.parallel_eff", "ratio", walls[0].Seconds()/(float64(nproc)*walls[1].Seconds()), 2)
	return nil
}

// journalRecord is about the size of one checkpointed trial result.
var journalRecord = []byte(`{"slot":1234,"metrics":{"mislabeled":0,"maxLB":31,"totalLB":9120,"timeLB":118,"physMax":0,"physRounds":0,"msgViolations":0},"seed":11641430564424062098}`)

const journalAppends = 1000

// journalProbe times Append with an fsync on every record, as the
// checkpoint and serve journals use by default.
func journalProbe(o *output, dir string) error {
	path := filepath.Join(dir, "probe.journal")
	os.Remove(path)
	j, err := journal.Create(path, []byte("perfbench journal probe"), journal.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	us := make([]float64, 0, journalAppends)
	for i := 0; i < journalAppends; i++ {
		t := time.Now()
		if err := j.Append(journalRecord); err != nil {
			j.Close()
			return err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	sort.Float64s(us)
	// Nearest rank with at least ten samples beyond: p99 of 1000 is rank 990.
	o.set("journal.append_us_p50", "us", us[journalAppends/2-1], journalAppends)
	o.set("journal.append_us_p99", "us", us[journalAppends*99/100-1], journalAppends)
	return nil
}
