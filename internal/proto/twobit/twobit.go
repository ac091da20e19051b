// Package twobit implements the paper's 2Bit-Protocol: the six-round
// sub-protocol that transmits two bits across a single hop and uses
// silence to authenticate them (Section 4, Level 1).
//
// The six rounds of a schedule slot are:
//
//	R1  sender broadcasts iff b1 = 1
//	R2  receivers that sensed activity in R1 broadcast an acknowledgement
//	R3  sender broadcasts iff b2 = 1
//	R4  receivers that sensed activity in R3 broadcast an acknowledgement
//	R5  sender broadcasts a veto iff the acknowledgements contradict its bits
//	R6  receivers that sensed activity in R5 relay the veto
//
// A receiver returns success (with its estimate of the bits) iff R5 was
// silent; a sender returns success iff R6 was silent. Because malicious
// devices "cannot forge silence", any Byzantine interference forces a
// veto and therefore a visible failure (Theorem 1), at the cost of at
// least one Byzantine broadcast.
//
// The types here are pure, engine-independent state machines: callers
// feed them the sub-round number (0..5) and channel observations, and
// read back the transmit decisions and the outcome. They are composed
// into full devices by the onehop, nwatch and multipath packages. A
// third role, Watcher, implements NeighborWatchRB's monitoring: a square
// member that has not committed the bit being sent listens during
// R1..R4 and jams R5 and R6 on any activity, blocking the transfer
// ("node n blocks the 1Hop-Protocol initiated by the other node, by
// broadcasting during veto rounds").
package twobit

import "fmt"

// Sub-round indices within a slot.
const (
	R1 = iota // sender data round for b1
	R2        // receiver acknowledgement for b1
	R3        // sender data round for b2
	R4        // receiver acknowledgement for b2
	R5        // sender veto round
	R6        // receiver veto round
	// NumRounds is the slot length.
	NumRounds
)

// Outcome is the result of one 2Bit exchange.
type Outcome uint8

// Exchange outcomes.
const (
	Pending Outcome = iota
	Success
	Failure
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Success:
		return "success"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Sender is the sender role for one slot, transmitting bits (B1, B2).
// Sender{B1: b1, B2: b2} is ready to use, so callers that run one
// exchange per slot can hold the machine by value and reset it in
// place instead of allocating one per slot.
type Sender struct {
	B1, B2 bool

	ack1, ack2 bool // activity observed in R2 / R4
	sawR6      bool
	seen       uint8 // bitmask of delivered observations
}

// NewSender returns a sender for the bit pair.
func NewSender(b1, b2 bool) *Sender { return &Sender{B1: b1, B2: b2} }

// Transmits reports whether the sender broadcasts in the given
// sub-round. For R5 it is only valid once R2 and R4 observations have
// been delivered.
func (s *Sender) Transmits(sub int) bool {
	switch sub {
	case R1:
		return s.B1
	case R3:
		return s.B2
	case R5:
		return s.vetoes()
	default:
		return false
	}
}

// vetoes evaluates the paper's four sender-veto conditions.
func (s *Sender) vetoes() bool {
	return (s.B1 != s.ack1) || (s.B2 != s.ack2)
}

// Observe delivers the channel activity for a listening sub-round
// (R2, R4, R6).
func (s *Sender) Observe(sub int, busy bool) {
	switch sub {
	case R2:
		s.ack1 = busy
	case R4:
		s.ack2 = busy
	case R6:
		s.sawR6 = busy
	default:
		panic(fmt.Sprintf("twobit: sender Observe in sub-round %d", sub))
	}
	s.seen |= 1 << uint(sub)
}

// Outcome returns the sender's result; it is Pending until the R6
// observation has been delivered. The sender succeeds iff it did not
// veto and R6 was silent.
func (s *Sender) Outcome() Outcome {
	if s.seen&(1<<R6) == 0 {
		return Pending
	}
	if s.sawR6 || s.vetoes() {
		return Failure
	}
	return Success
}

// Receiver is the receiver role for one slot. The zero value is a fresh
// receiver.
type Receiver struct {
	est1, est2 bool // activity observed in R1 / R3
	sawVeto    bool // activity observed in R5
	seen       uint8
}

// NewReceiver returns a fresh receiver.
func NewReceiver() *Receiver { return &Receiver{} }

// Transmits reports whether the receiver broadcasts in the given
// sub-round: acknowledgements in R2/R4 echo sensed activity, and R6
// relays a sensed veto back to the sender.
func (r *Receiver) Transmits(sub int) bool {
	switch sub {
	case R2:
		return r.est1
	case R4:
		return r.est2
	case R6:
		return r.sawVeto
	default:
		return false
	}
}

// Observe delivers the channel activity for a listening sub-round
// (R1, R3, R5).
func (r *Receiver) Observe(sub int, busy bool) {
	switch sub {
	case R1:
		r.est1 = busy
	case R3:
		r.est2 = busy
	case R5:
		r.sawVeto = busy
	default:
		panic(fmt.Sprintf("twobit: receiver Observe in sub-round %d", sub))
	}
	r.seen |= 1 << uint(sub)
}

// Outcome returns the receiver's result; it is Pending until the R5
// observation has been delivered. On Success, Bits returns the estimate.
func (r *Receiver) Outcome() Outcome {
	if r.seen&(1<<R5) == 0 {
		return Pending
	}
	if r.sawVeto {
		return Failure
	}
	return Success
}

// Bits returns the receiver's estimate of the transmitted pair. Only
// meaningful when Outcome is Success.
func (r *Receiver) Bits() (b1, b2 bool) { return r.est1, r.est2 }

// Watcher is NeighborWatchRB's in-square monitor: a square member that
// has not committed the bit its square is attempting to send. It listens
// through R1..R4 and, upon any activity, broadcasts in both veto rounds,
// failing the exchange for receivers (R5) and for co-senders (R6).
//
// When the pair being sent could legitimately be all-silent (an
// even-parity position, whose encoding is ⟨0,data⟩ and whose data-0 case
// transmits nothing), activity-triggered vetoing is insufficient: a
// Byzantine square-mate could "send" a 0-bit by pure silence, which no
// veto can distinguish after the fact. For those positions the watcher
// vetoes unconditionally, spending two broadcasts to keep the square
// stalled until every honest member has committed the bit.
//
// The zero value is an activity-triggered watcher, like
// NewWatcher(false).
type Watcher struct {
	sawAny bool
}

// NewWatcher returns a watcher. unconditional makes it veto even a
// fully silent slot; NeighborWatchRB sets this for uncommitted
// even-parity stream positions (see type comment).
func NewWatcher(unconditional bool) *Watcher { return &Watcher{sawAny: unconditional} }

// Transmits reports whether the watcher jams the given sub-round.
func (w *Watcher) Transmits(sub int) bool {
	return (sub == R5 || sub == R6) && w.sawAny
}

// Observe delivers channel activity for the monitoring rounds R1..R4.
func (w *Watcher) Observe(sub int, busy bool) {
	if sub >= R1 && sub <= R4 && busy {
		w.sawAny = true
	}
}

// Blocked reports whether the watcher detected (and therefore blocked)
// a transmission attempt.
func (w *Watcher) Blocked() bool { return w.sawAny }
