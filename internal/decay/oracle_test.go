package decay

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// refLocalBroadcast is the per-round Local-Broadcast the listen session
// replaced, kept as an oracle: every slot rescans the senders for that
// slot's transmitters and hands every still-awake receiver to Engine.Step,
// which charges each one round of listening; receivers that hear are
// compacted out of the active list.
func refLocalBroadcast(e *radio.Engine, p Params, senders []radio.TX, receivers []int32, callSeed uint64, got []radio.Msg, ok []bool) {
	for i := range ok {
		ok[i] = false
		got[i] = radio.Msg{}
	}
	if len(senders) == 0 && len(receivers) == 0 {
		e.SkipRounds(p.Duration())
		return
	}
	active := append([]int32(nil), receivers...)
	idx := make([]int, len(receivers))
	for i := range idx {
		idx[i] = i
	}
	slotOf := make([]int, len(senders))
	out := make([]radio.RX, len(receivers))
	var rnd rng.Source
	for pass := 0; pass < p.Passes; pass++ {
		for i := range senders {
			rnd.Reseed(rng.Derive(callSeed, uint64(pass), uint64(senders[i].ID)))
			slotOf[i] = rnd.GeometricSlot(p.Slots)
		}
		for slot := 1; slot <= p.Slots; slot++ {
			var tx []radio.TX
			for i := range senders {
				if slotOf[i] == slot {
					tx = append(tx, senders[i])
				}
			}
			if len(tx) == 0 && len(active) == 0 {
				e.SkipRounds(1)
				continue
			}
			e.Step(tx, active, out[:len(active)])
			w := 0
			for j := range active {
				if out[j].OK {
					got[idx[j]] = out[j].Msg
					ok[idx[j]] = true
				} else {
					active[w], idx[w] = active[j], idx[j]
					w++
				}
			}
			active, idx = active[:w], idx[:w]
		}
	}
}

// lbCase is one decoded Local-Broadcast scenario: a small graph, engine
// options, Params, sender and receiver lists (possibly empty, possibly
// overlapping) and a number of back-to-back calls.
type lbCase struct {
	g         *graph.Graph
	opts      []radio.Option
	p         Params
	senders   []radio.TX
	receivers []int32
	calls     int
}

// decodeLBCase maps arbitrary bytes onto a scenario, so the fuzzer and the
// random property test share one input space. Missing bytes read as zero.
//
//	data[0]  n = 1 + data[0]%24
//	data[1]  flags: bit 0 CD, bits 1-2 passes-1, bit 3 tight message budget,
//	         bit 4 allow sender/receiver overlap, bits 5-6 calls-1 (1..3)
//	data[2]  rotation of the receiver list
//	next n   one role byte per vertex: %8 in 0-2 receiver, 3-4 sender,
//	         5-6 idle, 7 both (receiver only without the overlap bit); the
//	         byte also sets the sender's message size
//	rest     edges, two bytes per edge
func decodeLBCase(data []byte) lbCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%24
	flags := at(1)
	var c lbCase
	if flags&1 != 0 {
		c.opts = append(c.opts, radio.WithCollisionDetection())
	}
	if flags&8 != 0 {
		c.opts = append(c.opts, radio.WithMaxMsgBits(14)) // kind + ≤6 bits of A
	}
	c.p = ParamsFor(n, 1+int(flags>>1)%4)
	c.calls = 1 + int(flags>>5)%3
	overlap := flags&16 != 0
	var recv []int32
	for v := 0; v < n; v++ {
		b := at(3 + v)
		role := b % 8
		if role == 7 && !overlap {
			role = 0
		}
		if role <= 2 || role == 7 {
			recv = append(recv, int32(v))
		}
		if role == 3 || role == 4 || role == 7 {
			c.senders = append(c.senders, radio.TX{ID: int32(v), Msg: radio.Msg{Kind: 1, A: uint64(b) << (b % 11)}})
		}
	}
	if len(recv) > 0 {
		r := int(at(2)) % len(recv)
		c.receivers = append(recv[r:], recv[:r]...)
	}
	b := graph.NewBuilder(n)
	for i := 3 + n; i+1 < len(data); i += 2 {
		if u, v := int32(int(data[i])%n), int32(int(data[i+1])%n); u != v {
			b.AddEdge(u, v)
		}
	}
	c.g = b.Graph()
	return c
}

// lbOutcome is everything observable after running a case: per-call
// results, per-device meters, the clock, the violation counter, and the
// panic (if any) that stopped the run.
type lbOutcome struct {
	got                        [][]radio.Msg
	ok                         [][]bool
	energy, listens, transmits []int64
	round, violations          int64
	panicked                   string
}

func runLBCase(c lbCase, lb func(*radio.Engine, Params, []radio.TX, []int32, uint64, []radio.Msg, []bool)) (o lbOutcome) {
	e := radio.NewEngine(c.g, c.opts...)
	defer func() {
		if r := recover(); r != nil {
			o.panicked = fmt.Sprint(r)
		}
	}()
	for call := 0; call < c.calls; call++ {
		got := make([]radio.Msg, len(c.receivers))
		ok := make([]bool, len(c.receivers))
		for i := range got { // stale results the call must overwrite
			got[i], ok[i] = radio.Msg{A: 0xdead}, true
		}
		lb(e, c.p, c.senders, c.receivers, rng.Derive(7, uint64(call)), got, ok)
		o.got, o.ok = append(o.got, got), append(o.ok, ok)
		e.SkipRounds(int64(call)) // calls need not start on aligned rounds
	}
	for v := int32(0); v < int32(c.g.N()); v++ {
		o.energy = append(o.energy, e.Energy(v))
		o.listens = append(o.listens, e.Listens(v))
		o.transmits = append(o.transmits, e.Transmits(v))
	}
	o.round, o.violations = e.Round(), e.MsgViolations()
	return o
}

// checkLBCase runs the scenario through Scratch.LocalBroadcast (one Scratch
// across all calls, as the harness holds it) and through refLocalBroadcast,
// and requires identical outcomes. A run that panics must panic with the
// same message in both; engine state after a panic is unspecified. It
// returns the case and the reference outcome.
func checkLBCase(t *testing.T, data []byte) (lbCase, lbOutcome) {
	t.Helper()
	c := decodeLBCase(data)
	var s Scratch
	got := runLBCase(c, s.LocalBroadcast)
	want := runLBCase(c, refLocalBroadcast)
	if got.panicked != want.panicked {
		t.Fatalf("input %x: panic %q, reference %q", data, got.panicked, want.panicked)
	}
	if want.panicked != "" {
		return c, want
	}
	for call := range want.got {
		for i := range want.got[call] {
			if got.got[call][i] != want.got[call][i] || got.ok[call][i] != want.ok[call][i] {
				t.Fatalf("input %x: call %d receiver %d: (%+v, %v), reference (%+v, %v)", data, call, c.receivers[i],
					got.got[call][i], got.ok[call][i], want.got[call][i], want.ok[call][i])
			}
		}
	}
	for v := range want.energy {
		if got.energy[v] != want.energy[v] || got.listens[v] != want.listens[v] || got.transmits[v] != want.transmits[v] {
			t.Fatalf("input %x: device %d meters (E=%d L=%d T=%d), reference (E=%d L=%d T=%d)", data, v,
				got.energy[v], got.listens[v], got.transmits[v], want.energy[v], want.listens[v], want.transmits[v])
		}
	}
	if got.round != want.round || got.violations != want.violations {
		t.Fatalf("input %x: round %d violations %d, reference %d, %d", data, got.round, got.violations, want.round, want.violations)
	}
	return c, want
}

// TestLocalBroadcastMatchesReference is the oracle property test: random
// small graphs × CD on/off × tight budget on/off × passes 1-4 × disjoint,
// overlapping and empty sender/receiver sets, each over 1-3 calls.
func TestLocalBroadcastMatchesReference(t *testing.T) {
	r := rng.New(0x10ca1b)
	var panicked, heard, violated, noSenders, noReceivers int
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 3+r.Intn(80))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		c, o := checkLBCase(t, data)
		if o.panicked != "" {
			panicked++
			continue
		}
		if slices.Contains(o.ok[0], true) {
			heard++
		}
		if o.violations > 0 {
			violated++
		}
		if len(c.senders) == 0 {
			noSenders++
		}
		if len(c.receivers) == 0 {
			noReceivers++
		}
	}
	// Every regime must be well exercised, or the test proves little.
	t.Logf("panicked %d, heard %d, violated %d, no senders %d, no receivers %d", panicked, heard, violated, noSenders, noReceivers)
	for _, n := range []int{panicked, heard, violated, noSenders, noReceivers} {
		if n < 20 {
			t.Fatalf("a regime is under-covered: panicked %d, heard %d, violated %d, no senders %d, no receivers %d",
				panicked, heard, violated, noSenders, noReceivers)
		}
	}
}

// FuzzLocalBroadcast searches for inputs on which the listen-session
// Local-Broadcast and the per-round reference disagree. The checked-in
// corpus under testdata/fuzz/FuzzLocalBroadcast replays under plain
// `go test`.
func FuzzLocalBroadcast(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0x02, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})          // star, one sender
	f.Add([]byte{9, 0x5f, 1, 3, 4, 3, 0, 1, 2, 7, 0, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5}) // CD, tight, overlap, 3 calls
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLBCase(t, data)
	})
}
