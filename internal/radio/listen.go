package radio

import "fmt"

// A listen session runs a fixed set of listeners through many rounds in
// which each listener stays awake until it first hears a message — the
// receiver side of Local-Broadcast (Lemma 2.4). It costs per round only
// what the round's transmissions reach: a listener that hears nothing is
// never touched. The paper charges energy as a count of awake slots (§1.1),
// so a listener's energy need not be paid round by round; it is charged
// once, as the number of rounds it listened, when it hears or when the
// session closes.
//
// Every round of the clock between OpenListen and CloseListen is a
// listening round for each listener still open: a StepListen round, and a
// SkipRounds round too (a round with no transmitter, which Step would spend
// charging every listener for silence). Meters of a listener still open do
// not yet include its session rounds; they are settled by CloseListen.
// Step must not be called while a session is open.

// OpenListen opens a listen session over listeners, which must be
// duplicate-free. got and ok (len(listeners) each) receive the session's
// results: they are cleared here, and got[i], ok[i] are set the round
// listeners[i] first hears exactly one transmitting neighbor. Opening a
// session while one is open, or listing a device twice, panics.
func (e *Engine) OpenListen(listeners []int32, got []Msg, ok []bool) {
	if e.inSession {
		panic(fmt.Sprintf("radio: OpenListen in round %d while a listen session is open", e.round))
	}
	if len(got) != len(listeners) || len(ok) != len(listeners) {
		panic(fmt.Sprintf("radio: result lengths %d, %d != listeners length %d", len(got), len(ok), len(listeners)))
	}
	for i, v := range listeners {
		if e.pos[v] >= 0 {
			panic(fmt.Sprintf("radio: device %d listed twice in the listen session opened in round %d", v, e.round))
		}
		e.pos[v] = int32(i)
	}
	clear(got)
	clear(ok)
	e.sessGot, e.sessOK = got, ok
	e.sessStart, e.sessOpen = e.round, len(listeners)
	e.inSession = true
}

// StepListen executes one physical round of the open session: tx lists the
// transmitting devices, the session's open listeners listen, and every
// other device idles. Its cost is O(Σ deg(tx) + heard). Each open listener
// with exactly one transmitting neighbor receives that message into its
// got/ok slot, is charged the rounds it listened, and leaves the session.
// Transmitter meters, the violation counter and the clock advance exactly
// as in Step, and the same programming errors panic with Step's wording: a
// device transmitting twice, or transmitting while an open listener.
func (e *Engine) StepListen(tx []TX) {
	if !e.inSession {
		panic(fmt.Sprintf("radio: StepListen in round %d without an open listen session", e.round))
	}
	clash := false
	for i := range tx {
		t := &tx[i]
		if e.cnt[t.ID] == -1 {
			panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
		}
		if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
			e.msgViolations++
		}
		e.energy[t.ID]++
		e.transmits[t.ID]++
		clash = clash || e.pos[t.ID] >= 0
		// Only open listeners are counted: a neighbor that is asleep, has
		// already heard, or transmits cannot receive.
		for _, u := range e.g.Neighbors(t.ID) {
			if e.pos[u] >= 0 && e.cnt[u] >= 0 {
				if e.cnt[u] == 0 {
					e.touched = append(e.touched, u)
				}
				e.cnt[u]++
				e.from[u] = int32(i)
			}
		}
		e.touched = append(e.touched, t.ID)
		e.cnt[t.ID] = -1
	}
	if clash {
		e.panicTransmitListen(tx)
	}
	// Deliver to the listeners covered exactly once and reset the counters
	// in the same pass; transmitters hold -1, so cnt == 1 is an open listener.
	listened := e.round - e.sessStart + 1
	for _, u := range e.touched {
		if e.cnt[u] == 1 {
			p := e.pos[u]
			e.sessGot[p] = tx[e.from[u]].Msg
			e.sessOK[p] = true
			e.energy[u] += listened
			e.listens[u] += listened
			e.pos[u] = -1
			e.sessOpen--
		}
		e.cnt[u] = 0
	}
	e.touched = e.touched[:0]
	e.round++
}

// panicTransmitListen raises Step's transmit+listen panic for the
// transmitting open listener that comes first in the listener list — the
// device Step's listener loop would have stopped at.
func (e *Engine) panicTransmitListen(tx []TX) {
	first := int32(-1)
	for i := range tx {
		if p := e.pos[tx[i].ID]; p >= 0 && (first < 0 || p < e.pos[first]) {
			first = tx[i].ID
		}
	}
	panic(fmt.Sprintf("radio: device %d both transmits and listens in round %d", first, e.round))
}

// CloseListen ends the open session, charging every listener that never
// heard for all rounds since OpenListen. listeners must be the list the
// session was opened with.
func (e *Engine) CloseListen(listeners []int32) {
	if !e.inSession {
		panic(fmt.Sprintf("radio: CloseListen in round %d without an open listen session", e.round))
	}
	const differ = "radio: CloseListen listeners differ from the session's"
	if len(listeners) != len(e.sessOK) {
		panic(differ)
	}
	listened := e.round - e.sessStart
	closed := 0
	for i, v := range listeners {
		p := e.pos[v]
		if p < 0 {
			continue
		}
		if int(p) != i {
			panic(differ)
		}
		e.energy[v] += listened
		e.listens[v] += listened
		e.pos[v] = -1
		closed++
	}
	if closed != e.sessOpen {
		panic(differ)
	}
	e.sessGot, e.sessOK = nil, nil
	e.inSession = false
}
