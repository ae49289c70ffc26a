package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// traceServeCold is the traced serve loop's cold-job count: the fewest
// whose p90 has ten samples beyond it. Hits follow at hitsPerCold, which
// gives the p99 its 1000.
var traceServeCold = samplesFor(90)

// traced is the per-layer run. Every traced run measures the whole layer
// ladder from outside — the in-process layer suite, the distributed
// transports and journal through the CLI, and the daemon's HTTP API — so
// each per-layer metric is present on every workload; the workload decides
// what trace.overhead and the spec.* metrics are measured on.
func (b *bench) traced() error {
	in, err := generate(b.workload, b.seed, b.seconds, b.size, b.clients())
	if err != nil {
		return err
	}
	if err := b.traceWorkload(in); err != nil {
		return err
	}
	if err := b.layerSuite(); err != nil {
		return err
	}
	if err := b.distProbes(); err != nil {
		return err
	}
	if b.workload != serveMixed {
		sin, err := generate(serveMixed, b.seed, b.seconds, b.size, b.clients())
		if err != nil {
			return err
		}
		sin.Plan = servePlan(b.seed, traceServeCold, hitsPerCold, b.clients(), len(sin.Templates))
		lr, err := b.serveLoop(sin, "trace-store")
		if err != nil {
			return err
		}
		b.serveLayers(lr)
	}
	return nil
}

// traceWorkload measures the workload once untraced and once traced and
// reports the ratio of their walls as trace.overhead, together with the
// spec.* metrics of the workload's own spec.
func (b *bench) traceWorkload(in *inputs) error {
	var untraced, traced time.Duration
	switch b.workload {
	case scaleDecay, recursiveSweep:
		spec := b.path("spec.json")
		if err := os.WriteFile(spec, in.Spec, 0o644); err != nil {
			return err
		}
		root := in.Roots[len(in.Roots)-1]
		r, err := b.round(spec, 0, root, false)
		b.op(err == nil, "untraced round", fmt.Sprint(err))
		if err != nil {
			return err
		}
		untraced = r.wall
		t := time.Now()
		lo, err := b.runLayers("-spec", spec, "-root", strconv.FormatUint(root, 10), "-workers", b.nworkers(), "-out", b.path("traced"))
		if err != nil {
			return err
		}
		traced = time.Since(t)
		b.verify(lo.Digest == r.digest, "in-process artifacts equal the CLI's", lo.Digest+" vs "+r.digest)
	case distCheckpoint:
		spec := b.path("spec.json")
		if err := os.WriteFile(spec, in.Spec, 0o644); err != nil {
			return err
		}
		root := in.Roots[len(in.Roots)-1]
		u, err := b.round(spec, 0, root, false)
		b.op(err == nil, "untraced round", fmt.Sprint(err))
		if err != nil {
			return err
		}
		tr, err := b.round(spec, 1, root, true)
		b.op(err == nil && tr.digest == u.digest, "traced round", fmt.Sprint(err))
		if err != nil {
			return err
		}
		untraced, traced = u.wall, tr.wall
		if _, err := b.runLayers("-spec", spec, "-root", strconv.FormatUint(root, 10), "-workers", b.nworkers(), "-out", b.path("traced")); err != nil {
			return err
		}
	case serveMixed:
		tmpl := b.path("template.json")
		if err := os.WriteFile(tmpl, in.Templates[0], 0o644); err != nil {
			return err
		}
		if _, err := b.runLayers("-spec", tmpl, "-workers", b.nworkers(), "-out", b.path("traced")); err != nil {
			return err
		}
		in.Plan = servePlan(b.seed, traceServeCold, hitsPerCold, b.clients(), len(in.Templates))
		// Serve is traced from the client: the loop timestamps each SSE
		// event it already reads. Two loops run back to back on fresh
		// stores; the second is broken down into admit/queue/execute, and
		// their ratio bounds what the tracing costs.
		u, err := b.serveLoop(in, "untraced-store")
		if err != nil {
			return err
		}
		lr, err := b.serveLoop(in, "traced-store")
		if err != nil {
			return err
		}
		b.serveLayers(lr)
		untraced, traced = u.wall, lr.wall
	}
	b.set("trace.overhead", "ratio", traced.Seconds()/untraced.Seconds(), 2)
	return nil
}

// runLayers runs the in-process layer probe and merges its metrics.
func (b *bench) runLayers(args ...string) (layersOutput, error) {
	var lo layersOutput
	c, err := start(b.ctx, b.layers, args...)
	if err != nil {
		return lo, err
	}
	out, err := c.output()
	if err != nil {
		return lo, err
	}
	if err := json.Unmarshal(out, &lo); err != nil {
		return lo, fmt.Errorf("layer probe output: %w", err)
	}
	for name, m := range lo.Metrics {
		b.set(name, m.Unit, m.Value, lo.Samples[name])
	}
	b.verify(len(lo.Failures) == 0, "layer probe checks", strings.Join(lo.Failures, "; "))
	return lo, nil
}

type layersOutput struct {
	Metrics  map[string]metric `json:"metrics"`
	Samples  map[string]int    `json:"samples"`
	Digest   string            `json:"digest"`
	Failures []string          `json:"failures"`
}

func (b *bench) layerSuite() error {
	_, err := b.runLayers("-suite", "-workers", b.nworkers(), "-dir", b.path("suite"))
	return err
}

// serveLayers reports the traced serve loop's per-request breakdown and
// the daemon's counters.
func (b *bench) serveLayers(lr loopResult) {
	pct := func(name string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		b.verify(err == nil, name+" has enough samples", fmt.Sprint(err))
		if err == nil {
			b.set(name, "ms", v, len(xs))
		}
	}
	cold, hit := lr.latencies(func(t opTimes) float64 { return ms(t.fetched.Sub(t.post)) })
	pct("serve.cold_ms_p50", cold, 50)
	pct("serve.cold_ms_p90", cold, 90)
	pct("serve.hit_ms_p50", hit, 50)
	pct("serve.hit_ms_p99", hit, 99)
	admit, hitAdmit := lr.latencies(func(t opTimes) float64 { return ms(t.resp.Sub(t.post)) })
	pct("serve.admit_ms_p50", admit, 50)
	pct("serve.hit_admit_ms_p50", hitAdmit, 50)
	queue, _ := lr.latencies(func(t opTimes) float64 { return ms(t.started.Sub(t.resp)) })
	pct("serve.queue_ms_p50", queue, 50)
	pct("serve.queue_ms_p90", queue, 90)
	exec, _ := lr.latencies(func(t opTimes) float64 { return ms(t.complete.Sub(t.started)) })
	pct("serve.exec_ms_p50", exec, 50)
	coldFetch, hitFetch := lr.latencies(func(t opTimes) float64 {
		if t.complete.IsZero() {
			return ms(t.fetched.Sub(t.resp))
		}
		return ms(t.fetched.Sub(t.complete))
	})
	pct("serve.fetch_ms_p50", append(coldFetch, hitFetch...), 50)
	st := lr.stats
	b.set("serve.executions", "count", float64(st.Executions), 1)
	b.set("serve.cache_hits", "count", float64(st.CacheHits), 1)
	b.set("serve.coalesced", "count", float64(st.Coalesced), 1)
	b.set("serve.rejected", "count", float64(st.Rejected), 1)
}

// distReps is how many times each distributed leg runs.
const distReps = 2

// distProbes runs the dist-checkpoint spec in-process, over pipe workers,
// over loopback TCP workers, checkpointed with -progress, and again
// against the completed checkpoint; the differences between their walls
// are the per-trial costs of each layer.
func (b *bench) distProbes() error {
	in, err := generate(distCheckpoint, b.seed, b.seconds, b.size, 1)
	if err != nil {
		return err
	}
	spec := b.path("dist-spec.json")
	if err := os.WriteFile(spec, in.Spec, 0o644); err != nil {
		return err
	}
	root := in.Roots[len(in.Roots)-1]
	// Each leg runs distReps times, interleaved, so a slow moment of the
	// host lands on every leg alike; walls and counts are summed.
	var inproc, pipe, tcp, cked, ready time.Duration
	var sum distSummary
	var digests []string
	var ckArgs []string
	revoked := 0
	for rep := 0; rep < distReps; rep++ {
		in, err := b.exec(spec, "d-inproc", root, "-workers", b.nworkers())
		if err != nil {
			return err
		}
		p, err := b.exec(spec, "d-pipe", root, "-dist", "-workers", b.nworkers())
		if err != nil {
			return err
		}
		t, err := b.tcpRun(spec, root)
		if err != nil {
			return err
		}
		ckArgs = []string{"-progress", "-workers", b.nworkers(), "-checkpoint", b.path("d-ck", strconv.Itoa(rep))}
		c, err := b.execStart(spec, "d-ck", root, ckArgs...)
		if err != nil {
			return err
		}
		l, rerr := c.waitLine(b.ctx, "ready")
		ck, err := c.finish(b, "d-ck")
		if err != nil {
			return err
		}
		if rerr != nil {
			return rerr
		}
		s, err := parseDistSummary(ck.stderr)
		if err != nil {
			return err
		}
		inproc, pipe, tcp, cked, ready = inproc+in.wall, pipe+p.wall, tcp+t.wall, cked+ck.wall, ready+l.at.Sub(c.start)
		sum.trials += s.trials
		sum.leases += s.leases
		sum.speculative += s.speculative
		sum.dupResults += s.dupResults
		revoked += strings.Count(ck.stderr, " revoked from worker ")
		digests = append(digests, in.digest, p.digest, t.digest, ck.digest)
	}
	replay, err := b.exec(spec, "d-replay", root, ckArgs...)
	if err != nil {
		return err
	}
	digests = append(digests, replay.digest)
	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	b.verify(same, "pipe, TCP, checkpoint and replay artifacts equal in-process", digests[0])
	b.verify(revoked == 0, "clean checkpointed runs revoke no lease", strconv.Itoa(revoked))
	trials := float64(sum.trials)
	perTrial := func(a, b time.Duration) float64 { return ms(a-b) / trials }
	b.set("dist.worker_ready_ms", "ms", ms(ready)/distReps, distReps)
	b.set("dist.overhead_ms_per_trial", "ms", perTrial(pipe, inproc), 2*distReps)
	b.set("dist.tcp_overhead_ms_per_trial", "ms", perTrial(tcp, inproc), 2*distReps)
	b.set("dist.leases", "count", float64(sum.leases)/distReps, distReps)
	b.set("dist.speculative_grants", "count", float64(sum.speculative)/distReps, distReps)
	b.set("dist.revocations", "count", float64(revoked), distReps)
	b.set("dist.dup_trial_ratio", "ratio", float64(sum.dupResults)/trials, distReps)
	b.set("journal.overhead_ms_per_trial", "ms", perTrial(cked, pipe), 2*distReps)
	b.set("journal.replay_ms", "ms", ms(replay.wall), 1)
	return nil
}

// execStart is exec without the wait, for runs whose stderr is watched.
func (b *bench) execStart(spec, out string, root uint64, extra ...string) (*child, error) {
	args := append([]string{"run", "-quiet", "-out", b.path(out)}, extra...)
	if root != defaultRoot {
		args = append(args, "-seed", strconv.FormatUint(root, 10))
	}
	return start(b.ctx, b.bin, append(args, spec)...)
}

// finish waits for a run started by execStart and digests its output.
func (c *child) finish(b *bench, out string) (roundResult, error) {
	wall, rss, err := c.wait()
	r := roundResult{wall: wall, rssMB: rss, stderr: c.stderr()}
	if err != nil {
		return r, err
	}
	r.digest, err = digestOut(b.path(out))
	return r, err
}

// tcpRun coordinates a run over loopback TCP with nproc `radiobfs work
// -connect` workers and returns the coordinator's wall time.
func (b *bench) tcpRun(spec string, root uint64) (roundResult, error) {
	const token = "perfbench"
	c, err := b.execStart(spec, "d-tcp", root, "-listen", "127.0.0.1:0", "-token", token, "-workers", b.nworkers())
	if err != nil {
		return roundResult{}, err
	}
	l, err := c.waitLine(b.ctx, "dist: listening on ")
	var workers []*child
	if err == nil {
		addr := strings.TrimSpace(l.s[strings.Index(l.s, "dist: listening on ")+len("dist: listening on "):])
		for i := 0; i < b.nproc && err == nil; i++ {
			var w *child
			if w, err = start(b.ctx, b.bin, "work", "-connect", addr, "-token", token); err == nil {
				workers = append(workers, w)
			}
		}
	}
	if err != nil {
		c.signal(syscall.SIGINT)
	}
	r, cerr := c.finish(b, "d-tcp")
	for _, w := range workers {
		if _, _, werr := w.wait(); werr != nil && err == nil {
			err = werr
		}
	}
	if err == nil {
		err = cerr
	}
	return r, err
}
