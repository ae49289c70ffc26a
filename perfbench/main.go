// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the radiobfs binary as users do — `radiobfs run` to persisted
// artifacts, `radiobfs run -checkpoint`, and the `radiobfs serve` daemon over
// HTTP — checks every output, and prints one JSON result as its last line.
// perfbench/run.py builds the binaries and invokes it; see README.md.
//
//	perfbench --workload W --seed N --seconds S --trace 0|1
//	perfbench compare A B   (captured stdouts of two sets of runs)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// deadline bounds one run, so it ends (killing every process it started)
// well inside the 180 s a run may take.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed on the line before the result: the same metrics plus
// the host fingerprint, the sample count behind every metric and every
// check's outcome. The compare step reads these lines.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Host     host              `json:"host"`
	Samples  map[string]int    `json:"samples"`
	Checks   []check           `json:"checks"`
	Metrics  map[string]metric `json:"metrics"`
	// Extra holds measurements a workload takes beyond its reported
	// metrics (serve-mixed's cold and hit latency percentiles).
	Extra map[string]metric `json:"extra,omitempty"`
	// Rounds lists each timed round's wall time in seconds.
	Rounds []float64 `json:"rounds_s,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// bench is one run: its configuration and everything it has measured.
type bench struct {
	ctx      context.Context
	bin      string // radiobfs
	layers   string // the in-process layer probe (traced runs only)
	work     string // scratch directory, emptied at start
	workload string
	seed     uint64
	seconds  int
	nproc    int
	size     size
	pins     map[string]string

	metrics   map[string]metric
	extra     map[string]metric
	rounds    []float64
	samples   map[string]int
	checks    []check
	attempted int
	failed    int
}

func newBench(ctx context.Context) *bench {
	return &bench{
		ctx:     ctx,
		nproc:   runtime.NumCPU(),
		pins:    pins,
		metrics: map[string]metric{},
		extra:   map[string]metric{},
		samples: map[string]int{},
	}
}

// set records a metric measured from n samples.
func (b *bench) set(name, unit string, v float64, n int) {
	b.metrics[name] = metric{v, unit}
	b.samples[name] = n
}

// op counts one attempted operation, failed unless ok.
func (b *bench) op(ok bool, name, detail string) {
	b.attempted++
	if !ok {
		b.failed++
		b.checks = append(b.checks, check{name, false, detail})
	}
}

// verify counts a check over a whole run as one more operation and records
// its outcome.
func (b *bench) verify(ok bool, name, detail string) {
	b.attempted++
	if !ok {
		b.failed++
	}
	b.checks = append(b.checks, check{name, ok, detail})
}

func (b *bench) path(elem ...string) string {
	return filepath.Join(append([]string{b.work}, elem...)...)
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 20, "measurement budget of the timed phase")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	bin := flag.String("bin", "", "radiobfs binary")
	layers := flag.String("layers", "", "in-process layer probe binary (needed with -trace 1)")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compare(os.Stdout, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := newBench(ctx)
	b.bin, b.layers, b.workload, b.seed, b.seconds = *bin, *layers, *workload, *seed, *seconds
	if err := b.prepare(*work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.print(os.Stdout, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (b *bench) prepare(work string) error {
	if b.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := generate(b.workload, b.seed, b.seconds, b.size, 1); err != nil {
		return err
	}
	if st, err := os.Stat(b.bin); err != nil || st.IsDir() {
		return fmt.Errorf("radiobfs binary %q not found (build it with perfbench/run.py)", b.bin)
	}
	abs, err := filepath.Abs(work)
	if err != nil {
		return err
	}
	b.work = abs
	if err := os.RemoveAll(b.work); err != nil {
		return err
	}
	return os.MkdirAll(b.work, 0o755)
}

// endToEnd runs the workload untraced and records its end-to-end metrics.
func (b *bench) endToEnd() error {
	in, err := generate(b.workload, b.seed, b.seconds, b.size, b.clients())
	if err != nil {
		return err
	}
	if b.workload == serveMixed {
		return b.serveMixed(in)
	}
	return b.batch(in)
}

func (b *bench) clients() int { return min(2, b.nproc) }

func (b *bench) print(w io.Writer, trace int) error {
	want := endToEndMetrics
	if trace == 1 {
		want = perLayerMetrics
	}
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, want exactly %v", len(b.metrics), want)
	}
	for name := range b.metrics {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	sort.Slice(b.checks, func(i, j int) bool { return b.checks[i].Name < b.checks[j].Name })
	root, _ := os.Getwd()
	rec := record{Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: trace,
		Host: fingerprint(root), Samples: b.samples, Checks: b.checks, Metrics: b.metrics, Extra: b.extra, Rounds: b.rounds}
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: b.metrics}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}
