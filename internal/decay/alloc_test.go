package decay

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// TestLocalBroadcastScratchZeroAllocs asserts the Decay rounds allocate
// nothing once a Scratch has been warmed — the property that keeps large
// physical-cost sweeps activity-bound instead of GC-bound.
func TestLocalBroadcastScratchZeroAllocs(t *testing.T) {
	g := graph.Star(65)
	e := radio.NewEngine(g)
	p := ParamsFor(g.N(), 4)
	senders := make([]radio.TX, 0, 64)
	for v := 1; v <= 64; v++ {
		senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
	}
	receivers := []int32{0}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	var s Scratch
	s.LocalBroadcast(e, p, senders, receivers, rng.Derive(1, 0), got, ok) // warm
	call := uint64(1)
	allocs := testing.AllocsPerRun(50, func() {
		call++
		s.LocalBroadcast(e, p, senders, receivers, rng.Derive(1, call), got, ok)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.LocalBroadcast allocates %v per call in steady state, want 0", allocs)
	}

	// The listen-session shape: many receivers, a few senders, most
	// receivers never hearing, on one engine and Scratch reused across
	// graphs of two sizes.
	type shape struct {
		g         *graph.Graph
		senders   []radio.TX
		receivers []int32
		got       []radio.Msg
		ok        []bool
	}
	var shapes []shape
	for _, g := range []*graph.Graph{graph.Grid(40, 40), graph.Grid(16, 16)} {
		sh := shape{g: g}
		for v := int32(0); v < int32(g.N()); v++ {
			if v%97 == 5 {
				sh.senders = append(sh.senders, radio.TX{ID: v, Msg: radio.Msg{A: uint64(v)}})
			} else {
				sh.receivers = append(sh.receivers, v)
			}
		}
		sh.got, sh.ok = make([]radio.Msg, len(sh.receivers)), make([]bool, len(sh.receivers))
		shapes = append(shapes, sh)
	}
	e = radio.NewEngine(shapes[0].g)
	p = ParamsFor(shapes[0].g.N(), 4)
	both := func() {
		for _, sh := range shapes {
			call++
			e.Reset(sh.g)
			s.LocalBroadcast(e, p, sh.senders, sh.receivers, rng.Derive(1, call), sh.got, sh.ok)
		}
	}
	both() // warm
	if allocs := testing.AllocsPerRun(50, both); allocs != 0 {
		t.Fatalf("Scratch.LocalBroadcast allocates %v per call pair (many silent receivers, engine reused across sizes), want 0", allocs)
	}
}

// TestScratchBFSMatchesFresh pins the pooled path to the one-shot path: the
// same seeds must label identically whether the scratch is fresh or reused,
// including across graphs of different sizes.
func TestScratchBFSMatchesFresh(t *testing.T) {
	var s Scratch
	for i, g := range []*graph.Graph{graph.Cycle(96), graph.Grid(7, 7), graph.Path(33)} {
		seed := uint64(100 + i)
		p := ParamsFor(g.N(), 6)
		eFresh := radio.NewEngine(g)
		want := BFS(eFresh, p, []int32{0}, g.N(), seed)
		ePooled := radio.NewEngine(g)
		got := s.BFS(ePooled, p, []int32{0}, g.N(), seed)
		if len(got.Dist) != len(want.Dist) {
			t.Fatalf("graph %d: dist length %d, want %d", i, len(got.Dist), len(want.Dist))
		}
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] {
				t.Fatalf("graph %d: dist[%d] = %d, want %d", i, v, got.Dist[v], want.Dist[v])
			}
		}
		if got.Rounds != want.Rounds || got.LBCalls != want.LBCalls || got.MaxDepth != want.MaxDepth {
			t.Fatalf("graph %d: result %+v, want %+v", i, got, want)
		}
	}
}
