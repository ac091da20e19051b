// Package onehopdrv wires the paper's 1Hop-Protocol (Section 4,
// Level 1) into the driver registry as a standalone protocol,
// "OneHopRB": the source streams the broadcast message bit by bit over
// repeated silence-authenticated 2Bit exchanges, and every node within
// a single hop reassembles the stream with the parity discipline.
//
// The protocol is single-hop by construction — nodes outside the
// source's range never complete — so it is the minimal registry entry
// for exercising runtime seams (it is the reference protocol for the
// UDP loopback transport's equivalence tests) and for demonstrating
// the Level-1 building block in isolation. It is intentionally NOT
// imported by the internal/protocols glue package: registering it
// globally would change the registry enumeration that experiment
// goldens pin. Binaries that want it (cmd/rbsim, transport tests)
// import it explicitly.
//
// A lying node replays the 1Hop sender role with a fake message in the
// same slots as the source. Both streams collide at every listener, so
// honest receivers observe activity they cannot decode, vetoes fire,
// and the stream stalls: the liar can suppress delivery (1Hop offers
// no multi-path redundancy) but can never cause a spurious delivery —
// silence cannot be forged.
package onehopdrv

import (
	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/geom"
	"authradio/internal/proto/onehop"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
)

// Driver wires OneHopRB into a world.
type Driver struct{}

// Name implements core.ProtocolDriver.
func (Driver) Name() string { return "OneHopRB" }

// Aliases implements core.ProtocolDriver.
func (Driver) Aliases() []string { return []string{"onehop", "1hop"} }

// Build implements core.ProtocolDriver. The schedule is a single slot
// of the 2Bit exchange's six sub-rounds, repeating every cycle: the
// source owns the slot, every other active node is a receiver.
func (Driver) Build(cfg core.Config, b *core.WorldBuilder) error {
	d := b.Deployment()
	cyc := schedule.Cycle{NumSlots: 1, SlotLen: twobit.NumRounds}
	b.SetCycle(cyc, 1)
	for i := 0; i < d.N(); i++ {
		switch {
		case i == cfg.SourceID:
			b.AddDevice(newSender(i, d.Pos[i], cfg.Msg, false))
		case b.Role(i) == core.Honest:
			b.AddNode(i, newReceiver(i, d.Pos[i], cfg.Msg.Len))
		case b.Role(i) == core.Liar:
			b.AddLiar(i, newSender(i, d.Pos[i], cfg.FakeMsg, true))
		}
	}
	return nil
}

// sender streams a message over consecutive 2Bit slots: the source
// role, also replayed by liars with a fake message.
type sender struct {
	id   int
	pos  geom.Point
	msg  bitcodec.Message
	liar bool

	str *onehop.StreamSender
	tb  twobit.Sender
	on  bool // a 2Bit exchange is in flight this slot
}

func newSender(id int, pos geom.Point, msg bitcodec.Message, liar bool) *sender {
	s := &sender{id: id, pos: pos, msg: msg, liar: liar, str: onehop.NewStreamSender(msg.Len)}
	for i := 0; i < msg.Len; i++ {
		s.str.Append(msg.Bit(i))
	}
	return s
}

// ID implements sim.Device.
func (s *sender) ID() int { return s.id }

// Pos implements sim.Device.
func (s *sender) Pos() geom.Point { return s.pos }

// Wake implements sim.Device.
func (s *sender) Wake(r uint64) sim.Step {
	sub := int(r % uint64(twobit.NumRounds))
	if sub == twobit.R1 {
		p, _, ok := s.str.Current()
		if !ok { // stream fully delivered
			return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
		}
		s.tb = twobit.Sender{B1: p.B1, B2: p.B2}
		s.on = true
	}
	if !s.on {
		return sim.Step{Action: sim.Sleep, NextWake: r + 1}
	}
	switch sub {
	case twobit.R1, twobit.R3:
		if s.tb.Transmits(sub) {
			return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindData}, NextWake: r + 1}
		}
		return sim.Step{Action: sim.Sleep, NextWake: r + 1}
	case twobit.R5:
		if s.tb.Transmits(sub) {
			return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindVeto}, NextWake: r + 1}
		}
		return sim.Step{Action: sim.Sleep, NextWake: r + 1}
	default: // R2, R4, R6: the sender listens for acks and relayed vetoes
		return sim.Step{Action: sim.Listen, NextWake: r + 1}
	}
}

// Deliver implements sim.Device.
func (s *sender) Deliver(r uint64, obs radio.Obs) {
	if !s.on {
		return
	}
	sub := int(r % uint64(twobit.NumRounds))
	s.tb.Observe(sub, obs.Busy)
	if sub == twobit.R6 {
		s.str.SlotDone(s.tb.Outcome() == twobit.Success)
		s.on = false
	}
}

// IsLiar implements core.Status.
func (s *sender) IsLiar() bool { return s.liar }

// Complete implements core.Status: a sender holds its message from the
// start (the source is complete by definition; a liar's "completion" is
// excluded from honest metrics anyway).
func (s *sender) Complete() bool { return true }

// CompletedAt implements core.Status.
func (s *sender) CompletedAt() uint64 { return 0 }

// CommittedBits implements core.Status.
func (s *sender) CommittedBits() int { return s.msg.Len }

// Message implements core.Status.
func (s *sender) Message() (bitcodec.Message, bool) { return s.msg, true }

// receiver reassembles the stream from successful 2Bit exchanges.
type receiver struct {
	id     int
	pos    geom.Point
	msgLen int

	str         *onehop.StreamReceiver
	rx          twobit.Receiver
	on          bool // rx holds an exchange (false until the first R1)
	completedAt uint64
}

func newReceiver(id int, pos geom.Point, msgLen int) *receiver {
	return &receiver{id: id, pos: pos, msgLen: msgLen, str: onehop.NewStreamReceiver(msgLen)}
}

// ID implements sim.Device.
func (n *receiver) ID() int { return n.id }

// Pos implements sim.Device.
func (n *receiver) Pos() geom.Point { return n.pos }

// Wake implements sim.Device.
func (n *receiver) Wake(r uint64) sim.Step {
	sub := int(r % uint64(twobit.NumRounds))
	if sub == twobit.R1 {
		if n.str.Complete() {
			return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
		}
		n.rx = twobit.Receiver{}
		n.on = true
	}
	if !n.on { // joined mid-slot (first cycle only)
		return sim.Step{Action: sim.Sleep, NextWake: r + 1}
	}
	switch sub {
	case twobit.R1, twobit.R3, twobit.R5:
		return sim.Step{Action: sim.Listen, NextWake: r + 1}
	default: // R2, R4, R6: echo/veto rounds
		if n.rx.Transmits(sub) {
			kind := radio.KindAck
			if sub == twobit.R6 {
				kind = radio.KindVeto
			}
			return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: kind}, NextWake: r + 1}
		}
		return sim.Step{Action: sim.Sleep, NextWake: r + 1}
	}
}

// Deliver implements sim.Device.
func (n *receiver) Deliver(r uint64, obs radio.Obs) {
	if !n.on {
		return
	}
	sub := int(r % uint64(twobit.NumRounds))
	n.rx.Observe(sub, obs.Busy)
	if sub == twobit.R5 && n.rx.Outcome() == twobit.Success {
		b1, b2 := n.rx.Bits()
		if n.str.Accept(onehop.Pair{B1: b1, B2: b2}) && n.str.Complete() {
			n.completedAt = r
		}
	}
}

// IsLiar implements core.Status.
func (n *receiver) IsLiar() bool { return false }

// Complete implements core.Status.
func (n *receiver) Complete() bool { return n.str.Complete() }

// CompletedAt implements core.Status.
func (n *receiver) CompletedAt() uint64 { return n.completedAt }

// CommittedBits implements core.Status.
func (n *receiver) CommittedBits() int { return n.str.Received() }

// Message implements core.Status.
func (n *receiver) Message() (bitcodec.Message, bool) {
	if !n.str.Complete() {
		return bitcodec.Message{}, false
	}
	return bitcodec.FromBools(n.str.Bits()), true
}

func init() { core.Register(Driver{}) }
