package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many times a run measures set-up. Its median needs
// minBeyond samples above it.
const setupProbes = 2*minBeyond + 1

// badSpec names a custom workload, which `radiobfs run` refuses at compile
// time. Listed after the workload's spec, it makes the program do exactly
// its start-up — process start, package init, parse and compile of every
// spec — and exit, which is what the batch workloads' setup probe times.
const badSpec = `{"name": "setup-probe", "scenarios": [{"name": "x", "custom": "setup-probe", "instances": [{"family": "cycle", "n": 8}]}]}`

// batch runs scale-decay, recursive-sweep or dist-checkpoint: one
// `radiobfs run` per round, each round's artifacts verified, with the
// set-up probes spread between the rounds.
func (b *bench) batch(in *inputs) error {
	spec := b.path("spec.json")
	if err := os.WriteFile(spec, in.Spec, 0o644); err != nil {
		return err
	}
	bad := b.path("setup-probe.json")
	if err := os.WriteFile(bad, []byte(badSpec), 0o644); err != nil {
		return err
	}
	probe := func(i int) (time.Duration, error) {
		if b.workload == distCheckpoint {
			return b.readyProbe(spec, i)
		}
		return b.compileProbe(spec, bad)
	}

	var setup, rss []float64
	var wall time.Duration
	digests := make([]string, len(in.Roots))
	gaps := len(in.Roots) + 1
	for i := 0; i < gaps; i++ {
		if err := b.setupProbes(&setup, share(i, gaps), probe); err != nil {
			return err
		}
		if i == len(in.Roots) {
			break
		}
		r, err := b.round(spec, i, in.Roots[i], false)
		wall += r.wall
		if err != nil {
			b.op(false, fmt.Sprintf("round %d", i), err.Error())
			continue
		}
		digests[i] = r.digest
		b.rounds = append(b.rounds, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		b.op(b.roundOK(i, digests), fmt.Sprintf("round %d digest", i), r.digest)
	}
	b.set("setup_s", "s", mustPct(setup, 50)/1e3, len(setup))
	b.set("wall_s", "s", wall.Seconds(), len(in.Roots))
	if len(rss) == 0 {
		return fmt.Errorf("no round completed")
	}
	b.set("peak_rss_mb", "MB", maxOf(rss), len(rss))

	// Untimed cross-path check: the distributed rounds must equal an
	// in-process run of the same spec at the same root.
	if b.workload == distCheckpoint {
		root := in.Roots[len(in.Roots)-1]
		r, err := b.exec(spec, "ref", root, "-workers", b.nworkers())
		ok := err == nil && r.digest == digests[len(digests)-1]
		b.verify(ok, "checkpoint artifacts equal in-process", fmt.Sprint(r.digest, " ", err))
	}
	return nil
}

// roundOK checks round i's digest: round 0 runs at the pinned default root,
// later rounds share one seeded root and must agree with each other and
// differ from the pin.
func (b *bench) roundOK(i int, digests []string) bool {
	pin := b.pins[pinKey(b.workload, b.size, "")]
	if i == 0 {
		return digests[0] == pin
	}
	return digests[i] != "" && digests[i] == digests[1] && digests[i] != pin
}

type roundResult struct {
	wall   time.Duration
	rssMB  float64
	digest string
	stderr string
}

// round runs one timed round of the workload at root.
func (b *bench) round(spec string, i int, root uint64, progress bool) (roundResult, error) {
	args := []string{"-workers", b.nworkers()}
	if b.workload == distCheckpoint {
		args = append(args, "-checkpoint", b.path("ck", strconv.Itoa(i)))
		if progress {
			args = append(args, "-progress")
		}
	}
	r, err := b.exec(spec, fmt.Sprintf("r%d", i), root, args...)
	if err != nil || b.workload != distCheckpoint {
		return r, err
	}
	sum, err := parseDistSummary(r.stderr)
	if err != nil {
		return r, err
	}
	if sum.revoked != 0 || sum.inproc != 0 {
		return r, fmt.Errorf("clean run revoked %d leases and finished %d in-process", sum.revoked, sum.inproc)
	}
	return r, nil
}

// exec runs `radiobfs run` on spec into work/<out> and digests trials.jsonl.
func (b *bench) exec(spec, out string, root uint64, extra ...string) (roundResult, error) {
	dir := b.path(out)
	args := append([]string{"run", "-quiet", "-out", dir}, extra...)
	if root != defaultRoot {
		args = append(args, "-seed", strconv.FormatUint(root, 10))
	}
	args = append(args, spec)
	wall, rss, stderr, err := run(b.ctx, b.bin, args...)
	r := roundResult{wall: wall, rssMB: rss, stderr: stderr}
	if err != nil {
		return r, err
	}
	r.digest, err = digestOut(dir)
	os.RemoveAll(dir)
	return r, err
}

func (b *bench) nworkers() string { return strconv.Itoa(b.nproc) }

// share is how many of the setupProbes set-up probes run in gap i of n:
// spread over the whole run, their median samples the host across it
// rather than in one instant. Probe time is not part of wall_s.
func share(i, n int) int {
	return setupProbes*(i+1)/n - setupProbes*i/n
}

// setupProbes runs k probes, appending each one's time in milliseconds.
// probe is given the index of the sample it takes.
func (b *bench) setupProbes(ms *[]float64, k int, probe func(i int) (time.Duration, error)) error {
	for j := 0; j < k; j++ {
		d, err := probe(len(*ms))
		b.op(err == nil, "setup probe", fmt.Sprint(err))
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		*ms = append(*ms, float64(d.Nanoseconds())/1e6)
	}
	return nil
}

// compileProbe runs the program until it has parsed and compiled the
// workload's spec and refused the probe spec after it.
func (b *bench) compileProbe(spec, bad string) (time.Duration, error) {
	wall, _, stderr, err := run(b.ctx, b.bin, "run", "-quiet", "-out", b.path("probe"), spec, bad)
	if err == nil || !strings.Contains(stderr, "not provided by this driver") {
		return 0, fmt.Errorf("setup probe: want the custom-workload refusal, got err=%v: %s", err, tail(stderr, 300))
	}
	return wall, nil
}

// readyProbe starts the checkpointed distributed run and times it until
// the first worker reports ready, then interrupts it.
func (b *bench) readyProbe(spec string, i int) (time.Duration, error) {
	ck := b.path("ckprobe", strconv.Itoa(i))
	c, err := start(b.ctx, b.bin, "run", "-quiet", "-progress", "-workers", b.nworkers(),
		"-checkpoint", ck, "-out", b.path("probe"), spec)
	if err != nil {
		return 0, err
	}
	l, lerr := c.waitLine(b.ctx, "ready")
	c.signal(syscall.SIGINT)
	c.wait() // interrupted on purpose: the exit status is non-zero
	os.RemoveAll(ck)
	if lerr != nil {
		return 0, lerr
	}
	return l.at.Sub(c.start), nil
}

// distSummary is the coordinator's end-of-run line.
type distSummary struct {
	trials, leases, speculative, dupResults, revoked, inproc int
}

var summaryRE = regexp.MustCompile(`dist: (\d+) trials over (\d+) leases on \d+ worker slots: \d+ spawns, (\d+) re-leases, (\d+) speculative grants, (\d+) duplicate results dropped, (\d+) leases finished in-process`)

func parseDistSummary(stderr string) (distSummary, error) {
	m := summaryRE.FindStringSubmatch(stderr)
	if m == nil {
		return distSummary{}, fmt.Errorf("no coordinator summary line in: %s", tail(stderr, 300))
	}
	n := make([]int, len(m)-1)
	for i := range n {
		n[i], _ = strconv.Atoi(m[i+1])
	}
	return distSummary{trials: n[0], leases: n[1], revoked: n[2], speculative: n[3], dupResults: n[4], inproc: n[5]}, nil
}

// digestOut digests trials.jsonl of the one spec `radiobfs run` wrote
// under dir.
func digestOut(dir string) (string, error) {
	m, err := filepath.Glob(filepath.Join(dir, "*", "trials.jsonl"))
	if err != nil || len(m) != 1 {
		return "", fmt.Errorf("want one trials.jsonl under %s, found %v (%v)", dir, m, err)
	}
	return digestFile(m[0])
}

func digestFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// mustPct is percentile for sample sets sized by construction to satisfy it.
func mustPct(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		panic(err)
	}
	return v
}
