package radio

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// panicMsg runs f and returns the value it panicked with, or "" if it
// returned normally.
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestListenSessionMatchesStep drives one listener set through a session
// and through per-round Steps that retire each listener once it hears, and
// requires the same deliveries, meters and clock — including rounds skipped
// mid-session, which the open listeners spend listening.
func TestListenSessionMatchesStep(t *testing.T) {
	g := graph.Path(8) // 0-1-2-3-4-5-6-7
	listeners := []int32{4, 7, 1, 3}
	rounds := [][]TX{
		{{ID: 0, Msg: Msg{A: 10}}, {ID: 2, Msg: Msg{A: 20}}}, // 1 collides, 3 hears 20
		nil,                        // silence
		{{ID: 2, Msg: Msg{A: 21}}}, // 1 hears 21
		{{ID: 3, Msg: Msg{A: 30}}, {ID: 5, Msg: Msg{A: 50}}}, // 4 collides; 3 has left
		{{ID: 5, Msg: Msg{A: 51}}},                           // 4 hears 51; 7 never hears
	}

	ref := NewEngine(g)
	active := append([]int32(nil), listeners...)
	wantGot := make([]Msg, len(listeners))
	wantOK := make([]bool, len(listeners))
	for _, tx := range rounds {
		out := step(ref, tx, active)
		w := 0
		for j, v := range active {
			if out[j].OK {
				for i, l := range listeners {
					if l == v {
						wantGot[i], wantOK[i] = out[j].Msg, true
					}
				}
			} else {
				active[w] = v
				w++
			}
		}
		active = active[:w]
	}

	e := NewEngine(g)
	got := make([]Msg, len(listeners))
	ok := make([]bool, len(listeners))
	e.OpenListen(listeners, got, ok)
	for _, tx := range rounds {
		if len(tx) == 0 {
			e.SkipRounds(1)
		} else {
			e.StepListen(tx)
		}
	}
	e.CloseListen(listeners)

	for i := range listeners {
		if got[i] != wantGot[i] || ok[i] != wantOK[i] {
			t.Fatalf("listener %d: got (%+v, %v), want (%+v, %v)", listeners[i], got[i], ok[i], wantGot[i], wantOK[i])
		}
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if e.Energy(v) != ref.Energy(v) || e.Listens(v) != ref.Listens(v) || e.Transmits(v) != ref.Transmits(v) {
			t.Fatalf("device %d meters (E=%d L=%d T=%d), want (E=%d L=%d T=%d)", v,
				e.Energy(v), e.Listens(v), e.Transmits(v), ref.Energy(v), ref.Listens(v), ref.Transmits(v))
		}
	}
	if e.Round() != ref.Round() {
		t.Fatalf("round = %d, want %d", e.Round(), ref.Round())
	}
	for v, want := range map[int32]int64{4: 5, 7: 5, 1: 3, 3: 1} {
		if e.Listens(v) != want {
			t.Fatalf("device %d listened %d rounds, want %d", v, e.Listens(v), want)
		}
	}
}

// TestOpenListenDuplicatePanics: a device listed twice would be charged
// twice per round, so the session refuses it.
func TestOpenListenDuplicatePanics(t *testing.T) {
	e := NewEngine(graph.Path(4))
	msg := panicMsg(func() { e.OpenListen([]int32{0, 2, 0}, make([]Msg, 3), make([]bool, 3)) })
	if msg != "radio: device 0 listed twice in the listen session opened in round 0" {
		t.Fatalf("panic = %q", msg)
	}
}

// TestOpenListenWhileOpenPanics: sessions do not nest.
func TestOpenListenWhileOpenPanics(t *testing.T) {
	e := NewEngine(graph.Path(4))
	e.OpenListen([]int32{1}, make([]Msg, 1), make([]bool, 1))
	msg := panicMsg(func() { e.OpenListen([]int32{2}, make([]Msg, 1), make([]bool, 1)) })
	if msg != "radio: OpenListen in round 0 while a listen session is open" {
		t.Fatalf("panic = %q", msg)
	}
}

// TestStepListenTransmitAndListenPanics requires Step's wording, naming the
// transmitting listener that comes first in the listener list.
func TestStepListenTransmitAndListenPanics(t *testing.T) {
	g := graph.Path(5)
	tx := []TX{{ID: 3}, {ID: 0}, {ID: 1}}
	listeners := []int32{4, 1, 3}
	want := panicMsg(func() { NewEngine(g).Step(tx, listeners, make([]RX, len(listeners))) })
	e := NewEngine(g)
	e.OpenListen(listeners, make([]Msg, 3), make([]bool, 3))
	got := panicMsg(func() { e.StepListen(tx) })
	if want == "" || got != want {
		t.Fatalf("StepListen panic = %q, want Step's %q", got, want)
	}
}

// TestStepListenDoubleTransmitPanics requires Step's wording for a device
// transmitting twice in one round.
func TestStepListenDoubleTransmitPanics(t *testing.T) {
	g := graph.Path(3)
	tx := []TX{{ID: 0}, {ID: 2}, {ID: 0}}
	want := panicMsg(func() { NewEngine(g).Step(tx, []int32{1}, make([]RX, 1)) })
	e := NewEngine(g)
	e.OpenListen([]int32{1}, make([]Msg, 1), make([]bool, 1))
	got := panicMsg(func() { e.StepListen(tx) })
	if want == "" || got != want {
		t.Fatalf("StepListen panic = %q, want Step's %q", got, want)
	}
}

// TestListenSessionMisusePanics covers the session bracket: stepping or
// closing without a session, and closing with a different listener list.
func TestListenSessionMisusePanics(t *testing.T) {
	e := NewEngine(graph.Path(4))
	if msg := panicMsg(func() { e.StepListen(nil) }); msg != "radio: StepListen in round 0 without an open listen session" {
		t.Fatalf("StepListen panic = %q", msg)
	}
	if msg := panicMsg(func() { e.CloseListen(nil) }); msg != "radio: CloseListen in round 0 without an open listen session" {
		t.Fatalf("CloseListen panic = %q", msg)
	}
	e.OpenListen([]int32{1, 2}, make([]Msg, 2), make([]bool, 2))
	if msg := panicMsg(func() { e.CloseListen([]int32{2, 1}) }); msg != "radio: CloseListen listeners differ from the session's" {
		t.Fatalf("CloseListen panic = %q", msg)
	}
}

// TestResetClearsListenSession: a session abandoned by a panic must not leak
// into the next trial. After Reset — here onto a larger graph, so the
// position array grows — the engine behaves exactly like a fresh one.
func TestResetClearsListenSession(t *testing.T) {
	small, large := graph.Path(4), graph.Star(40)
	e := NewEngine(small)
	e.OpenListen([]int32{0, 1, 3}, make([]Msg, 3), make([]bool, 3))
	e.StepListen([]TX{{ID: 2, Msg: Msg{A: 1}}}) // 1 and 3 hear; 0 stays open
	if panicMsg(func() { e.StepListen([]TX{{ID: 0}}) }) == "" {
		t.Fatal("transmitting open listener did not panic")
	}
	for _, g := range []*graph.Graph{small, large} {
		e.Reset(g)
		fresh := NewEngine(g)
		listeners := []int32{0, 1, 3}
		for _, eng := range []*Engine{e, fresh} {
			got, ok := make([]Msg, 3), make([]bool, 3)
			eng.OpenListen(listeners, got, ok)
			eng.StepListen([]TX{{ID: 2, Msg: Msg{A: 7}}})
			eng.SkipRounds(2)
			eng.CloseListen(listeners)
		}
		for v := int32(0); v < int32(g.N()); v++ {
			if e.Energy(v) != fresh.Energy(v) || e.Listens(v) != fresh.Listens(v) || e.Transmits(v) != fresh.Transmits(v) {
				t.Fatalf("n=%d device %d: meters after Reset (%d, %d, %d), fresh (%d, %d, %d)", g.N(), v,
					e.Energy(v), e.Listens(v), e.Transmits(v), fresh.Energy(v), fresh.Listens(v), fresh.Transmits(v))
			}
		}
		if e.Round() != fresh.Round() || e.MsgViolations() != fresh.MsgViolations() {
			t.Fatalf("n=%d: clock/violations after Reset (%d, %d), fresh (%d, %d)", g.N(),
				e.Round(), e.MsgViolations(), fresh.Round(), fresh.MsgViolations())
		}
	}
}
