package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a running `radiobfs serve` child.
type daemon struct {
	c     *child
	base  string // http://host:port
	ready time.Duration
}

// startDaemon starts serve on a fresh store and returns once /healthz
// answers; ready is the time from process start until then, which covers
// package init, store open and job-journal recovery.
func (b *bench) startDaemon(store string) (*daemon, error) {
	c, err := start(b.ctx, b.bin, "serve", "-addr", "127.0.0.1:0", "-store", store, "-workers", b.nworkers())
	if err != nil {
		return nil, err
	}
	d := &daemon{c: c}
	l, err := c.waitLine(b.ctx, "serve: listening on ")
	if err != nil {
		d.stop()
		return nil, err
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(l.s[strings.Index(l.s, "serve: listening on "):], "serve: listening on "), ",")
	d.base = "http://" + addr
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(c.start)
				return d, nil
			}
		}
		if b.ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and returns its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	d.c.signal(syscall.SIGTERM)
	_, rss, err := d.c.wait()
	return rss, err
}

// serveProbe times one daemon start on a fresh store.
func (b *bench) serveProbe(i int) (time.Duration, error) {
	store := b.path("probe-store", strconv.Itoa(i))
	defer os.RemoveAll(store)
	d, err := b.startDaemon(store)
	if err != nil {
		return 0, err
	}
	_, err = d.stop()
	return d.ready, err
}

// serveMixed is the untraced serve-mixed run. All set-up probes run
// before the closed loop: with half of them after it, daemons started
// right after the loop were slower and the median rose by about 40%.
func (b *bench) serveMixed(in *inputs) error {
	var setup []float64
	if err := b.setupProbes(&setup, setupProbes, b.serveProbe); err != nil {
		return err
	}
	lr, err := b.serveLoop(in, "store")
	if err != nil {
		return err
	}
	b.set("setup_s", "s", mustPct(setup, 50)/1e3, len(setup))
	b.set("wall_s", "s", lr.wall.Seconds(), len(lr.ops))
	b.set("peak_rss_mb", "MB", lr.rssMB, 1)
	cold, hit := lr.latencies(func(t opTimes) float64 { return ms(t.fetched.Sub(t.post)) })
	b.extraPct("cold_ms", cold, 50, 90)
	b.extraPct("hit_ms", hit, 50, 99)
	return nil
}

// extraPct records latency percentiles of a sample set in the record line
// only (see record.Extra), each with its sample count.
func (b *bench) extraPct(name string, xs []float64, ps ...float64) {
	for _, p := range ps {
		if v, err := percentile(xs, p); err == nil {
			key := fmt.Sprintf("%s_p%v", name, p)
			b.extra[key] = metric{v, "ms"}
			b.samples[key] = len(xs)
		}
	}
}

// opTimes are the instants one submission passed through, as the client
// saw them: POST sent, response read, SSE started and complete (cold jobs
// only), and artifact fetched.
type opTimes struct {
	post, resp, started, complete, fetched time.Time
}

type opResult struct {
	op
	times  opTimes
	digest string
	err    error
}

type loopResult struct {
	ops   []opResult
	wall  time.Duration
	rssMB float64
	stats serveStats
}

// latencies splits a per-op measure into cold and hit samples, successful
// ops only.
func (lr loopResult) latencies(f func(opTimes) float64) (cold, hit []float64) {
	for _, r := range lr.ops {
		if r.err != nil {
			continue
		}
		if r.Cold {
			cold = append(cold, f(r.times))
		} else {
			hit = append(hit, f(r.times))
		}
	}
	return cold, hit
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type serveStats struct {
	Executions int64 `json:"executions"`
	CacheHits  int64 `json:"cacheHits"`
	Coalesced  int64 `json:"coalesced"`
	Rejected   int64 `json:"rejected"`
}

// serveLoop starts a daemon on a fresh store, drives the plan as a closed
// loop with one connection per client, checks every response, the
// daemon's counters and a sample of artifacts against in-process runs,
// and stops the daemon.
func (b *bench) serveLoop(in *inputs, store string) (loopResult, error) {
	var lr loopResult
	d, err := b.startDaemon(b.path(store))
	if err != nil {
		return lr, err
	}
	results := make([][]opResult, len(in.Plan))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range in.Plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = b.client(d.base, c, in)
		}()
	}
	wg.Wait()
	lr.wall = time.Since(start)
	for _, rs := range results {
		lr.ops = append(lr.ops, rs...)
	}
	lr.stats, err = getStats(b.ctx, d.base)
	rss, stopErr := d.stop()
	lr.rssMB = rss
	b.verify(stopErr == nil, "daemon shut down cleanly", fmt.Sprint(stopErr))
	if err != nil {
		return lr, err
	}

	var colds, hits int64
	for _, r := range lr.ops {
		b.op(r.err == nil, "submission", fmt.Sprint(r.err))
		if r.Cold {
			colds++
		} else {
			hits++
		}
	}
	st := lr.stats
	b.verify(st.Executions == colds && st.CacheHits == hits && st.Rejected == 0 && st.Coalesced == 0,
		"serve counters match the generator",
		fmt.Sprintf("executions %d (want %d), cacheHits %d (want %d), rejected %d, coalesced %d", st.Executions, colds, st.CacheHits, hits, st.Rejected, st.Coalesced))
	b.verifyServed(in, lr.ops)
	return lr, nil
}

// serveRefs is about how many served cold jobs a run re-executes
// in-process to check byte identity.
const serveRefs = 16

// verifyServed checks the pinned cold job's digest, then re-runs a sample
// of cold jobs in-process through `radiobfs run` and requires byte
// identity with what the daemon served.
func (b *bench) verifyServed(in *inputs, ops []opResult) {
	var colds, sample []opResult
	for _, r := range ops {
		if r.Cold && r.err == nil {
			colds = append(colds, r)
		}
		if r.Cold && r.Seed == defaultRoot {
			pin := b.pins[pinKey(serveMixed, b.size, strconv.Itoa(r.Tmpl))]
			b.verify(r.digest == pin, "served pinned job digest", r.digest)
		}
	}
	every := max(1, len(colds)/serveRefs)
	for i, r := range colds {
		if i%every == 0 {
			sample = append(sample, r)
		}
	}
	dir := b.path("ref-specs")
	os.MkdirAll(dir, 0o755)
	args := []string{"run", "-quiet", "-workers", b.nworkers(), "-out", b.path("ref")}
	for i, r := range sample {
		f, err := withSeed(in.Templates[r.Tmpl], fmt.Sprintf("ref-%d", i), r.Seed)
		if err == nil {
			p := filepath.Join(dir, fmt.Sprintf("ref-%d.json", i))
			err = os.WriteFile(p, f, 0o644)
			args = append(args, p)
		}
		if err != nil {
			b.verify(false, "served artifacts equal in-process", err.Error())
			return
		}
	}
	_, _, _, err := run(b.ctx, b.bin, args...)
	if err != nil {
		b.verify(false, "served artifacts equal in-process", err.Error())
		return
	}
	bad := 0
	for i, r := range sample {
		if d, err := digestFile(b.path("ref", fmt.Sprintf("ref-%d", i), "trials.jsonl")); err != nil || d != r.digest {
			bad++
		}
	}
	b.verify(bad == 0, "served artifacts equal in-process", fmt.Sprintf("%d of %d sampled jobs differ", bad, len(sample)))
}

// client drives one client's share of the plan over its own connection.
func (b *bench) client(base string, c int, in *inputs) []opResult {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	id := "perfbench-" + strconv.Itoa(c)
	cold := map[op]string{} // (template, seed) → digest served when cold
	out := make([]opResult, 0, len(in.Plan[c]))
	for _, o := range in.Plan[c] {
		if b.ctx.Err() != nil {
			break
		}
		r := opResult{op: o}
		r.times, r.digest, r.err = b.submit(hc, base, id, in.Templates[o.Tmpl], o)
		key := op{Tmpl: o.Tmpl, Seed: o.Seed}
		if r.err == nil && o.Cold {
			cold[key] = r.digest
		} else if r.err == nil && cold[key] != r.digest {
			r.err = fmt.Errorf("cache hit for template %d seed %d served %s, cold job served %s", o.Tmpl, o.Seed, r.digest, cold[key])
		}
		out = append(out, r)
	}
	return out
}

type jobStatus struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	State     string   `json:"state"`
	CacheHit  bool     `json:"cacheHit"`
	Coalesced bool     `json:"coalesced"`
	Events    string   `json:"events"`
	Artifacts []string `json:"artifacts"`
}

// submit posts one job, follows a cold job's SSE stream to completion, and
// fetches trials.jsonl.
func (b *bench) submit(hc *http.Client, base, client string, spec []byte, o op) (opTimes, string, error) {
	var t opTimes
	t.post = time.Now()
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, base+"/v1/jobs?seed="+strconv.FormatUint(o.Seed, 10), bytes.NewReader(spec))
	if err != nil {
		return t, "", err
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := hc.Do(req)
	if err != nil {
		return t, "", err
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	t.resp = time.Now()
	want := http.StatusOK
	if o.Cold {
		want = http.StatusAccepted
	}
	if err != nil || resp.StatusCode != want || st.CacheHit == o.Cold || st.Coalesced {
		return t, "", fmt.Errorf("submit cold=%v: status %d (want %d), cacheHit %v, coalesced %v, err %v", o.Cold, resp.StatusCode, want, st.CacheHit, st.Coalesced, err)
	}
	if o.Cold {
		if err := b.follow(hc, base+st.Events, &t); err != nil {
			return t, "", err
		}
	}
	body, err := get(b.ctx, hc, base+"/v1/artifacts/"+st.Key+"/trials.jsonl")
	t.fetched = time.Now()
	if err != nil {
		return t, "", err
	}
	return t, digest(body), nil
}

// follow reads a job's SSE stream until its complete event, noting when
// the started and complete events arrived.
func (b *bench) follow(hc *http.Client, url string, t *opTimes) error {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "event: "):
			event = strings.TrimPrefix(l, "event: ")
			if event == "started" {
				t.started = time.Now()
			}
		case strings.HasPrefix(l, "data: ") && event == "complete":
			t.complete = time.Now()
			var e struct {
				State string `json:"state"`
				Err   string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(l, "data: ")), &e); err != nil || e.State != "done" {
				return fmt.Errorf("job ended %q: %s %v", e.State, e.Err, err)
			}
			if t.started.IsZero() {
				t.started = t.complete
			}
			return nil
		}
	}
	return fmt.Errorf("event stream %s ended without complete: %v", url, sc.Err())
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

func getStats(ctx context.Context, base string) (serveStats, error) {
	var st serveStats
	body, err := get(ctx, http.DefaultClient, base+"/v1/stats")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}
