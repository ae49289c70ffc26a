package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		p        float64
		min      int
		expected float64 // value at the minimum count of samples 1..min
	}{{50, 20, 10}, {90, 100, 90}, {99, 1000, 990}} {
		xs := make([]float64, c.min)
		for i := range xs {
			xs[i] = float64(len(xs) - i) // unsorted on purpose
		}
		if _, err := percentile(xs[:c.min-1], c.p); err == nil {
			t.Errorf("p%v of %d samples: want refusal (fewer than %d beyond)", c.p, c.min-1, minBeyond)
		}
		v, err := percentile(xs, c.p)
		if err != nil || v != c.expected {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.min, v, err, c.expected)
		}
		if got := samplesFor(c.p); got != c.min {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, got, c.min)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples: want refusal")
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, sz := range []size{full, tiny} {
			gen := func(seed uint64) []byte {
				in, err := generate(w, seed, 20, sz, 2)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(in)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b, c := gen(7), gen(7), gen(8)
			if !bytes.Equal(a, b) {
				t.Errorf("%s size %d: seed 7 generated different inputs twice", w, sz)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s size %d: seeds 7 and 8 generated identical inputs", w, sz)
			}
		}
	}
	if _, err := generate("no-such-workload", 1, 20, full, 2); err == nil {
		t.Error("unknown workload: want an error")
	}
}

func TestServePlanMeetsSampleCounts(t *testing.T) {
	in, err := generate(serveMixed, 3, 1, full, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, hit := 0, 0
	for _, ops := range in.Plan {
		seen := map[op]bool{}
		for i, o := range ops {
			k := op{Tmpl: o.Tmpl, Seed: o.Seed}
			if i == 0 && !o.Cold {
				t.Fatal("a client starts with a cache hit")
			}
			if o.Cold {
				cold++
				if seen[k] {
					t.Fatalf("cold job %+v repeats a pair", o)
				}
				seen[k] = true
			} else {
				hit++
				if !seen[k] {
					t.Fatalf("hit %+v re-submits a pair its client has not completed", o)
				}
			}
		}
	}
	if cold < samplesFor(90) || hit < samplesFor(99) {
		t.Errorf("plan has %d cold jobs and %d hits; the p90 and p99 need %d and %d", cold, hit, samplesFor(90), samplesFor(99))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	for _, c := range []struct {
		what       string
		have, want []string
	}{
		{"workloads", names(bj.Workloads), workloads},
		{"end_to_end", names(bj.EndToEnd), endToEndMetrics},
		{"per_layer", names(bj.PerLayer), perLayerMetrics},
	} {
		if !slices.Equal(c.have, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, code reports %v", c.what, c.have, c.want)
		}
		for _, n := range c.want {
			if !metricName.MatchString(n) || len(n) > 64 {
				t.Errorf("name %q does not match %s", n, metricName)
			}
		}
	}
}

// TestTinyPassChecksOutputs runs each workload end to end at tiny size
// against a freshly built radiobfs: with the right pins every check holds,
// and with a wrong pinned digest the run counts failed operations.
func TestTinyPassChecksOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the program")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "radiobfs")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/radiobfs").CombinedOutput(); err != nil {
		t.Fatalf("building radiobfs: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			run := func(pins map[string]string) *bench {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				b := newBench(ctx)
				b.bin, b.workload, b.seed, b.seconds, b.size = bin, w, 5, 1, tiny
				b.pins = pins
				if err := b.prepare(filepath.Join(dir, "work-"+w)); err != nil {
					t.Fatal(err)
				}
				if err := b.endToEnd(); err != nil {
					t.Fatal(err)
				}
				if err := b.print(io.Discard, 0); err != nil {
					t.Fatal(err)
				}
				return b
			}
			if b := run(pins); b.failed != 0 || b.attempted == 0 {
				t.Fatalf("with the pinned digests: %d of %d operations failed: %+v", b.failed, b.attempted, b.checks)
			}
			wrong := map[string]string{}
			for k := range pins {
				wrong[k] = "0000"
			}
			b := run(wrong)
			if b.failed == 0 {
				t.Fatalf("with wrong pinned digests: no failed operation among %d: %+v", b.attempted, b.checks)
			}
		})
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host, wall float64) string {
		rec := record{Workload: scaleDecay, Host: h, Metrics: map[string]metric{"wall_s": {wall, "s"}}}
		line, err := json.Marshal(map[string]record{"record": rec})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	here := host{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "a"}
	other := here
	other.NProc = 1
	sameHostNewCommit := here
	sameHostNewCommit.Commit = "b"
	a := write("a", here, 10)
	var out bytes.Buffer
	if err := compare(&out, []string{a, write("b", sameHostNewCommit, 9)}); err != nil {
		t.Fatalf("same host, different commits: %v", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("-10.0%")) {
		t.Errorf("compare output lacks the -10.0%% change:\n%s", out.String())
	}
	if err := compare(io.Discard, []string{a, write("c", other, 9)}); err == nil {
		t.Error("results from hosts with different nproc were compared")
	}
}
