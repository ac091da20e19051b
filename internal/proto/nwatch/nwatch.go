// Package nwatch implements NeighborWatchRB, the paper's first
// authenticated multi-hop broadcast protocol (Section 4, Level 2), plus
// its "2-voting" variant.
//
// The plane is partitioned into squares (schedule.SquareGrid); all nodes
// of a square act as one meta-node: they relay the broadcast message one
// bit at a time over the 1Hop-Protocol during their square's schedule
// slot, and they police each other — a member that has not committed the
// bit being sent blocks the transfer by broadcasting during the veto
// rounds ("neighborhood watch"). A node commits bit i once it has
// received bits 1..i from a neighboring square (or, in the 2-voting
// variant, from two different neighboring squares), or directly from the
// source, whose slot-0 stream is authenticated by the 1Hop-Protocol
// itself.
//
// Correctness intuition (Theorem 3): a square relays bit i only when its
// 2Bit exchange succeeds, which requires every honest member to have
// committed bit i with the same value — so "as long as there is at least
// one honest node in every square ... the protocol succeeds", t < ⌈R/2⌉².
package nwatch

import (
	"fmt"

	"authradio/internal/bitcodec"
	"authradio/internal/geom"
	"authradio/internal/proto/onehop"
	"authradio/internal/proto/twobit"
	"authradio/internal/radio"
	"authradio/internal/schedule"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// Shared is the immutable configuration common to every device of one
// NeighborWatchRB run. Everything in it is locally computable by a node
// from its own position plus the paper's standing assumptions (known
// locations, known message length, known source position).
type Shared struct {
	D      *topo.Deployment
	G      *schedule.SquareGrid
	MsgLen int
	// SourceID is the device id of the broadcast source.
	SourceID int
	// Votes is the number of distinct neighboring squares that must
	// deliver a bit before it is committed: 1 for plain
	// NeighborWatchRB, 2 for the "2-voting" variant.
	Votes int
	// Occupied marks squares containing at least one active relaying
	// device (the source itself does not relay through its square).
	Occupied map[schedule.Square]bool
	// MembersOf lists the active relaying devices of each square,
	// ascending. Locally computable under the paper's assumption that
	// devices know their neighbors' locations.
	MembersOf map[schedule.Square][]int
	// SourceSquare is the square containing the source.
	SourceSquare schedule.Square
}

// NewShared precomputes the run configuration. active[i] reports whether
// device i participates (false = crashed); nil means all participate.
func NewShared(d *topo.Deployment, g *schedule.SquareGrid, msgLen, sourceID, votes int, active []bool) *Shared {
	if votes < 1 {
		panic("nwatch: votes must be >= 1")
	}
	if msgLen <= 0 {
		panic("nwatch: message length must be positive")
	}
	occ := make(map[schedule.Square]bool)
	members := make(map[schedule.Square][]int)
	for i, p := range d.Pos {
		if i == sourceID {
			continue
		}
		if active != nil && !active[i] {
			continue
		}
		sq := g.SquareOf(p)
		occ[sq] = true
		members[sq] = append(members[sq], i)
	}
	return &Shared{
		D:            d,
		G:            g,
		MsgLen:       msgLen,
		SourceID:     sourceID,
		Votes:        votes,
		Occupied:     occ,
		MembersOf:    members,
		SourceSquare: g.SquareOf(d.Pos[sourceID]),
	}
}

// role is what a node is doing during one schedule slot.
type role uint8

const (
	roleIdle role = iota
	roleSender
	roleWatcher
	roleReceiver
)

// rxStream tracks the 1Hop stream arriving from one neighboring square
// (or from the source, keyed by schedule.SourceSlot).
type rxStream struct {
	slot    int
	rcv     *onehop.StreamReceiver
	counted int // bits already converted into votes
}

// Node is an honest (or lying, see NewLiar) NeighborWatchRB device.
type Node struct {
	sh  *Shared
	id  int
	pos geom.Point

	sq     schedule.Square
	mySlot int
	// interest lists the slots this node participates in, ascending.
	interest []int

	send    *onehop.StreamSender
	streams map[int]*rxStream // key: slot

	committed   []bool
	firstCommit []int8     // -1 unset, else 0/1: first value to reach the vote threshold
	votes       [][2]int32 // per bit index: streams that delivered 0 / 1
	fromSource  []int8     // -1 unset, else 0/1: value delivered directly by the source
	liar        bool

	completedAt uint64
	complete    bool

	// Desync repair state (see deliverSender): consecutive failed send
	// attempts, the member's rank among its square's active members
	// (0 = anchor), and whether this member has permanently yielded
	// its sender role.
	failStreak int
	rank       int
	yielded    bool

	// Per-slot activity. The 2Bit role machines are held by value and
	// reset at each slot start; role says which one is live.
	cur struct {
		active bool
		start  uint64
		slot   int
		role   role
		tx     twobit.Sender
		watch  twobit.Watcher
		rx     twobit.Receiver
		stream *rxStream
	}
}

// NewNode builds an honest node for device id.
func NewNode(sh *Shared, id int) *Node {
	n := newNode(sh, id)
	return n
}

// NewLiar builds a lying node: it runs the correct protocol but is
// "initialized with a fake message to propagate" (Section 6.1,
// Resilience to Lying) — its entire commit log is preloaded with the
// fake message, so it pushes those bits through its square and vetoes
// conflicting relays, exactly like an honest node that happens to hold
// different data.
func NewLiar(sh *Shared, id int, fake bitcodec.Message) *Node {
	if fake.Len != sh.MsgLen {
		panic("nwatch: fake message length mismatch")
	}
	n := newNode(sh, id)
	n.liar = true
	for i := 0; i < fake.Len; i++ {
		b := fake.Bit(i)
		n.committed = append(n.committed, b)
		n.send.Append(b)
	}
	// A liar is "complete" from the start; it never reports into the
	// honest completion metrics (the experiment layer filters liars).
	n.complete = true
	return n
}

func newNode(sh *Shared, id int) *Node {
	pos := sh.D.Pos[id]
	sq := sh.G.SquareOf(pos)
	n := &Node{
		sh:          sh,
		id:          id,
		pos:         pos,
		sq:          sq,
		mySlot:      sh.G.SlotOf(sq),
		send:        onehop.NewStreamSender(sh.MsgLen),
		streams:     make(map[int]*rxStream),
		firstCommit: make([]int8, sh.MsgLen),
		votes:       make([][2]int32, sh.MsgLen),
		fromSource:  make([]int8, sh.MsgLen),
	}
	for i := range n.firstCommit {
		n.firstCommit[i] = -1
		n.fromSource[i] = -1
	}

	// Streams from occupied adjacent squares.
	slots := map[int]bool{n.mySlot: true}
	for _, a := range sh.G.Adjacent(sq) {
		if !sh.Occupied[a] {
			continue
		}
		s := sh.G.SlotOf(a)
		n.streams[s] = &rxStream{slot: s, rcv: onehop.NewStreamReceiver(sh.MsgLen)}
		slots[s] = true
	}
	// The source stream, if this node's square is the source's own or
	// adjacent to it.
	if n.listensToSource() {
		n.streams[schedule.SourceSlot] = &rxStream{
			slot: schedule.SourceSlot,
			rcv:  onehop.NewStreamReceiver(sh.MsgLen),
		}
		slots[schedule.SourceSlot] = true
	}
	for s := range slots {
		n.interest = append(n.interest, s)
	}
	sortInts(n.interest)
	for idx, m := range sh.MembersOf[sq] {
		if m == id {
			n.rank = idx
			break
		}
	}
	return n
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func (n *Node) listensToSource() bool {
	if n.sq == n.sh.SourceSquare {
		return true
	}
	for _, a := range n.sh.G.Adjacent(n.sh.SourceSquare) {
		if n.sq == a {
			return true
		}
	}
	return false
}

// ID implements sim.Device.
func (n *Node) ID() int { return n.id }

// Pos implements sim.Device.
func (n *Node) Pos() geom.Point { return n.pos }

// Square returns the node's square.
func (n *Node) Square() schedule.Square { return n.sq }

// IsLiar reports whether the node was built by NewLiar.
func (n *Node) IsLiar() bool { return n.liar }

// Complete reports whether the node has committed every message bit.
func (n *Node) Complete() bool { return n.complete }

// CompletedAt returns the round at which the node completed; only
// meaningful when Complete (liars report 0).
func (n *Node) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns how many bits the node has committed.
func (n *Node) CommittedBits() int { return len(n.committed) }

// Message returns the committed message; ok is false until Complete.
func (n *Node) Message() (bitcodec.Message, bool) {
	if !n.complete {
		return bitcodec.Message{}, false
	}
	return bitcodec.FromBools(n.committed), true
}

// Wake implements sim.Device.
func (n *Node) Wake(r uint64) sim.Step {
	_, slot, sub := n.sh.G.At(r)
	start := r - uint64(sub)
	if n.cur.active && n.cur.start != start {
		n.cur.active = false
	}
	if !n.cur.active {
		n.beginSlot(start, slot)
	}
	act := n.act(sub)
	act.NextWake = n.nextWake(r)
	return act
}

// beginSlot decides the node's role for the slot starting at start.
func (n *Node) beginSlot(start uint64, slot int) {
	n.cur.active = true
	n.cur.start = start
	n.cur.slot = slot
	n.cur.stream = nil
	switch {
	case slot == n.mySlot:
		if n.yielded {
			n.cur.role = roleIdle
		} else if p, _, ok := n.send.Current(); ok {
			n.cur.role = roleSender
			n.cur.tx = twobit.Sender{B1: p.B1, B2: p.B2}
		} else {
			// Nothing committed yet (or stream finished): monitor the
			// square. Pre-stream positions expect parity 1, so the
			// activity-triggered watcher suffices (see twobit.Watcher).
			n.cur.role = roleWatcher
			n.cur.watch = twobit.Watcher{}
		}
	default:
		if s, ok := n.streams[slot]; ok {
			n.cur.role = roleReceiver
			n.cur.rx = twobit.Receiver{}
			n.cur.stream = s
		} else {
			n.cur.role = roleIdle
		}
	}
}

// act returns the node's radio action for sub-round sub of its active
// slot.
func (n *Node) act(sub int) sim.Step {
	switch n.cur.role {
	case roleSender:
		switch sub {
		case twobit.R1, twobit.R3:
			if n.cur.tx.Transmits(sub) {
				return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindData}}
			}
			return sim.Step{Action: sim.Sleep}
		case twobit.R5:
			if n.cur.tx.Transmits(sub) {
				return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindVeto}}
			}
			return sim.Step{Action: sim.Sleep}
		default: // R2, R4, R6
			return sim.Step{Action: sim.Listen}
		}
	case roleWatcher:
		if sub <= twobit.R4 {
			// Monitor data rounds and acknowledgement rounds alike: a
			// receiver ack also implies someone transmitted data.
			return sim.Step{Action: sim.Listen}
		}
		if n.cur.watch.Transmits(sub) {
			return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: radio.KindVeto}}
		}
		return sim.Step{Action: sim.Sleep}
	case roleReceiver:
		switch sub {
		case twobit.R1, twobit.R3, twobit.R5:
			return sim.Step{Action: sim.Listen}
		default: // R2, R4, R6: echo/veto rounds
			if n.cur.rx.Transmits(sub) {
				kind := radio.KindAck
				if sub == twobit.R6 {
					kind = radio.KindVeto
				}
				return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: kind}}
			}
			return sim.Step{Action: sim.Sleep}
		}
	default:
		return sim.Step{Action: sim.Sleep}
	}
}

// Deliver implements sim.Device.
func (n *Node) Deliver(r uint64, obs radio.Obs) {
	if !n.cur.active {
		return
	}
	sub := int(r - n.cur.start)
	switch n.cur.role {
	case roleSender:
		n.deliverSender(sub, obs.Busy)
	case roleWatcher:
		n.cur.watch.Observe(sub, obs.Busy)
	case roleReceiver:
		n.cur.rx.Observe(sub, obs.Busy)
		if sub == twobit.R5 && n.cur.rx.Outcome() == twobit.Success {
			b1, b2 := n.cur.rx.Bits()
			n.acceptPair(r, n.cur.stream, onehop.Pair{B1: b1, B2: b2})
		}
	}
}

// deliverSender processes a sender-role observation. Beyond driving the
// 2Bit machine, it implements the meta-node desync repair, "anchored
// yield":
//
// A Byzantine device can jam the R6 confirmation within range of only
// SOME square members (members are up to side*sqrt(2) apart). Members
// that saw the jam do not advance their stream position; members with a
// clean view — whose receivers all accepted the bit — do. The square
// then deadlocks: the two groups transmit opposite-parity pairs, every
// exchange is mutually vetoed, and the failure sustains itself with no
// further Byzantine expenditure.
//
// Repair: stream positions only ever advance by confirmed success —
// no speculative moves in either direction, because a replay or a jump
// landing two positions from a receiver's expectation shares its parity
// and could be mis-accepted. Instead, a member whose attempts keep
// failing YIELDS: it permanently stops transmitting in its own square's
// slot (it keeps receiving, committing and acknowledging as usual).
// Yield thresholds are staggered by the member's rank among its
// square's active members, and the rank-0 member — the anchor — never
// yields. Once the conflicting members have yielded, the survivors are
// position-consistent and the square's relay resumes; a survivor that
// was behind simply has its first re-sends rejected as duplicates by
// parity and catches up through ordinary successes. An adversary can
// force honest members to yield by long jam campaigns (budget
// proportional to the threshold), thinning the square's redundancy but
// never corrupting data and never silencing a square below its anchor.
func (n *Node) deliverSender(sub int, busy bool) {
	n.cur.tx.Observe(sub, busy)
	if sub != twobit.R6 {
		return
	}
	if n.cur.tx.Outcome() == twobit.Success {
		n.send.SlotDone(true)
		n.failStreak = 0
		return
	}
	n.failStreak++
	if n.rank > 0 && n.failStreak >= yieldAfterFails+yieldRankStep*n.rank {
		n.yielded = true
	}
}

// Yield thresholds: high enough that transient jamming (which costs the
// adversary a broadcast per failed slot) does not thin squares, low
// enough that a deadlocked square recovers within tens of its slot
// occurrences.
const (
	yieldAfterFails = 24
	yieldRankStep   = 8
)

// acceptPair feeds a successful 2Bit exchange into the stream, converts
// newly delivered bits into votes, and commits what the votes allow.
func (n *Node) acceptPair(r uint64, s *rxStream, p onehop.Pair) {
	s.rcv.Accept(p)
	bits := s.rcv.Bits()
	for ; s.counted < len(bits); s.counted++ {
		n.registerVote(s.counted, bits[s.counted], s.slot)
	}
	n.tryCommit(r)
}

// registerVote records that the stream in the given slot delivered bit
// index i with value v. Each stream delivers each index once (its
// counted cursor only advances), so a per-value tally counts the
// distinct slots that voted for it.
func (n *Node) registerVote(i int, v bool, slot int) {
	if slot == schedule.SourceSlot {
		n.fromSource[i] = b2i(v)
		return
	}
	n.votes[i][b2i(v)]++
	if n.firstCommit[i] < 0 && int(n.votes[i][b2i(v)]) >= n.sh.Votes {
		n.firstCommit[i] = b2i(v)
	}
}

func b2i(v bool) int8 {
	if v {
		return 1
	}
	return 0
}

// tryCommit extends the committed prefix as far as the recorded votes
// allow: a bit commits on direct delivery from the source, or once the
// vote threshold is reached ("a node commits to bit number i if it has
// received bits number 1, 2, ..., i from one of its neighbors").
func (n *Node) tryCommit(r uint64) {
	for len(n.committed) < n.sh.MsgLen {
		i := len(n.committed)
		var v bool
		switch {
		case n.fromSource[i] >= 0:
			v = n.fromSource[i] == 1
		case n.firstCommit[i] >= 0:
			v = n.firstCommit[i] == 1
		default:
			return
		}
		n.committed = append(n.committed, v)
		n.send.Append(v)
	}
	if !n.complete {
		n.complete = true
		n.completedAt = r
	}
}

// nextWake returns the first round after r that falls inside one of the
// node's interest slots.
func (n *Node) nextWake(r uint64) uint64 {
	_, slot, sub := n.sh.G.At(r + 1)
	// If r+1 is still inside an interest slot, wake then.
	if sub != 0 {
		for _, s := range n.interest {
			if s == slot {
				return r + 1
			}
		}
	}
	best := uint64(1<<63 - 1)
	for _, s := range n.interest {
		if w := n.sh.G.NextStart(r+1, s); w < best {
			best = w
		}
	}
	return best
}

// Source is the broadcast source device: it "behaves independently of
// any square and it always is awarded the first broadcast interval",
// streaming the message bits via the 1Hop-Protocol in slot 0.
type Source struct {
	sh   *Shared
	id   int
	pos  geom.Point
	send *onehop.StreamSender
	tx   twobit.Sender
	on   bool   // a 2Bit exchange is in flight
	cur  uint64 // active slot start (valid when on)
}

// NewSource builds the source device broadcasting msg.
func NewSource(sh *Shared, msg bitcodec.Message) *Source {
	if msg.Len != sh.MsgLen {
		panic(fmt.Sprintf("nwatch: source message length %d != configured %d", msg.Len, sh.MsgLen))
	}
	s := &Source{sh: sh, id: sh.SourceID, pos: sh.D.Pos[sh.SourceID], send: onehop.NewStreamSender(msg.Len)}
	for i := 0; i < msg.Len; i++ {
		s.send.Append(msg.Bit(i))
	}
	return s
}

// ID implements sim.Device.
func (s *Source) ID() int { return s.id }

// Pos implements sim.Device.
func (s *Source) Pos() geom.Point { return s.pos }

// Done reports whether every bit has been delivered to the source's
// neighborhood.
func (s *Source) Done() bool { return s.send.Done() }

// Wake implements sim.Device.
func (s *Source) Wake(r uint64) sim.Step {
	_, slot, sub := s.sh.G.At(r)
	start := r - uint64(sub)
	if slot != schedule.SourceSlot || s.send.Done() {
		return sim.Step{Action: sim.Sleep, NextWake: s.sourceNextWake(r)}
	}
	if sub == 0 || !s.on || s.cur != start {
		p, _, ok := s.send.Current()
		if !ok {
			return sim.Step{Action: sim.Sleep, NextWake: s.sourceNextWake(r)}
		}
		s.tx = twobit.Sender{B1: p.B1, B2: p.B2}
		s.on = true
		s.cur = start
	}
	var step sim.Step
	switch sub {
	case twobit.R1, twobit.R3, twobit.R5:
		if s.tx.Transmits(sub) {
			kind := radio.KindData
			if sub == twobit.R5 {
				kind = radio.KindVeto
			}
			step = sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: kind}}
		} else {
			step = sim.Step{Action: sim.Sleep}
		}
	default:
		step = sim.Step{Action: sim.Listen}
	}
	step.NextWake = s.sourceNextWake(r)
	return step
}

func (s *Source) sourceNextWake(r uint64) uint64 {
	if s.send.Done() {
		return sim.NoWake
	}
	_, slot, sub := s.sh.G.At(r + 1)
	if slot == schedule.SourceSlot && sub != 0 {
		return r + 1
	}
	return s.sh.G.NextStart(r+1, schedule.SourceSlot)
}

// Deliver implements sim.Device.
func (s *Source) Deliver(r uint64, obs radio.Obs) {
	if !s.on || s.cur > r || r-s.cur >= uint64(s.sh.G.SlotLen) {
		return
	}
	sub := int(r - s.cur)
	s.tx.Observe(sub, obs.Busy)
	if sub == twobit.R6 {
		s.send.SlotDone(s.tx.Outcome() == twobit.Success)
		s.on = false
	}
}

// SendPosition exposes the node's stream position (bits successfully
// relayed by its square from this member's view) for diagnostics and
// tests.
func (n *Node) SendPosition() int { return n.send.Delivered() }
