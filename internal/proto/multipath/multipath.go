// Package multipath implements MultiPathRB, the paper's optimally
// resilient authenticated broadcast protocol (Section 4, Level 2:
// MultiPathRB), tolerating t < R(2R+1)/2 Byzantine devices per
// neighborhood.
//
// Every device has its own schedule slot and relays three kinds of
// messages over the 1Hop-Protocol, as even-length bit frames
// (bitcodec): the source sends ⟨SOURCE, b_i⟩ for each message bit; a
// device that commits bit i sends ⟨COMMIT, b_i⟩; a device that receives
// ⟨COMMIT, b_i⟩ from v sends ⟨HEARD, v, b_i⟩, where v — "the cause" —
// is encoded by its schedule slot and resolved by the receiver through
// the schedule's spatial reuse.
//
// Commit rule (verbatim from the paper): "A node can commit to a bit
// when it has received at least t+1 COMMIT and HEARD messages, such
// that: there is some neighborhood N where (a) the source of every
// COMMIT message, (b) the source of every HEARD message, and (c) the
// cause of every HEARD message all lie in that neighborhood N" — with
// the t+1 messages attributable to distinct devices (node-disjoint
// paths). Neighbors of the source commit directly from SOURCE messages,
// whose authenticity the 1Hop-Protocol guarantees (Theorem 2).
//
// HEARD relaying is capped at 3(t+1) frames per (bit, value): a commit
// needs only t+1 pieces of evidence, so further relays are redundant;
// see DESIGN.md ("Scaling notes").
package multipath

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

// Shared is the immutable per-run configuration.
type Shared struct {
	D        *topo.Deployment
	NS       *schedule.NodeSchedule
	MsgLen   int
	SourceID int
	// T is the tolerance parameter: commits require t+1 distinct
	// pieces of neighborhood-contained evidence. The paper's
	// simulations use t = 3 and t = 5.
	T int
	// HeardCap bounds HEARD relays per (bit index, value).
	HeardCap int
	// Active reports device participation (nil = all active).
	Active []bool
}

// NewShared validates and completes a configuration.
func NewShared(d *topo.Deployment, ns *schedule.NodeSchedule, msgLen, sourceID, t int, active []bool) *Shared {
	if msgLen <= 0 || msgLen > bitcodec.MaxIndex+1 {
		panic(fmt.Sprintf("multipath: message length %d unsupported", msgLen))
	}
	if t < 0 {
		panic("multipath: negative tolerance")
	}
	if ns.NumSlots-1 > bitcodec.MaxSlot {
		panic("multipath: schedule too large for cause encoding")
	}
	return &Shared{
		D:        d,
		NS:       ns,
		MsgLen:   msgLen,
		SourceID: sourceID,
		T:        t,
		HeardCap: 3 * (t + 1),
		Active:   active,
	}
}

func (sh *Shared) isActive(id int) bool { return sh.Active == nil || sh.Active[id] }

// evItem is one piece of commit evidence for a (bit, value) pair: resp
// is the device responsible for the claim (COMMIT sender, or HEARD
// cause) and wit the device that reported it (equal to resp for
// COMMITs).
type evItem struct {
	resp, wit int
	val       bool
}

// rxState tracks the frame stream arriving from one neighbor.
type rxState struct {
	nbr int
	fr  *onehop.FrameReceiver
}

// Node is a MultiPathRB device; honest by default, lying when built
// with NewLiar.
type Node struct {
	sh  *Shared
	id  int
	pos geom.Point

	mySlot   int
	interest []int
	streams  map[int]*rxState // neighbor slot -> stream

	send *onehop.FrameSender

	committed  []int8 // per bit index: -1 uncommitted, else 0/1
	nCommitted int
	evidence   [][]evItem        // per bit index
	heardSent  map[heardKey]bool // dedup of relayed (cause, index, value)
	heardCount []map[bool]int    // per index: value -> heard frames enqueued

	liar bool
	fake bitcodec.Message

	complete    bool
	completedAt uint64

	// Per-slot activity. The 2Bit role machines are held by value and
	// reset at each slot start; role says which one is live.
	cur struct {
		active bool
		start  uint64
		slot   int
		role   role
		tx     twobit.Sender
		rx     twobit.Receiver
		stream *rxState
	}
}

type role uint8

const (
	roleIdle role = iota
	roleSender
	roleReceiver
)

type heardKey struct {
	cause int
	index int
	val   bool
}

// NewNode builds an honest node for device id.
func NewNode(sh *Shared, id int) *Node { return newNode(sh, id) }

// NewLiar builds a lying node per the paper's Section 6.1 malicious
// model for MultiPathRB: "the corrupt devices broadcast COMMIT messages
// for the fake value, and they never relay HEARD messages from correct
// nodes." It otherwise follows the protocol (acknowledgements etc.), so
// it appears correct.
func NewLiar(sh *Shared, id int, fake bitcodec.Message) *Node {
	if fake.Len != sh.MsgLen {
		panic("multipath: fake message length mismatch")
	}
	n := newNode(sh, id)
	n.liar = true
	n.fake = fake
	for i := 0; i < fake.Len; i++ {
		v := fake.Bit(i)
		n.committed[i] = b2i(v)
		n.send.Enqueue(bitcodec.Msg{Type: bitcodec.Commit, Index: i, Value: v}.Encode())
	}
	n.nCommitted = fake.Len
	n.complete = true
	return n
}

func newNode(sh *Shared, id int) *Node {
	n := &Node{
		sh:         sh,
		id:         id,
		pos:        sh.D.Pos[id],
		mySlot:     sh.NS.Slot[id],
		streams:    make(map[int]*rxState),
		send:       onehop.NewFrameSender(),
		committed:  make([]int8, sh.MsgLen),
		evidence:   make([][]evItem, sh.MsgLen),
		heardSent:  make(map[heardKey]bool),
		heardCount: make([]map[bool]int, sh.MsgLen),
	}
	for i := range n.committed {
		n.committed[i] = -1
		n.heardCount[i] = make(map[bool]int)
	}
	slots := map[int]bool{n.mySlot: true}
	var buf []int
	for _, nbr := range sh.D.Neighbors(buf, id) {
		if !sh.isActive(nbr) {
			continue
		}
		s := sh.NS.Slot[nbr]
		n.streams[s] = &rxState{nbr: nbr, fr: onehop.NewFrameReceiver(bitcodec.FrameLen)}
		slots[s] = true
	}
	for s := range slots {
		n.interest = append(n.interest, s)
	}
	sortInts(n.interest)
	return n
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func b2i(v bool) int8 {
	if v {
		return 1
	}
	return 0
}

// ID implements sim.Device.
func (n *Node) ID() int { return n.id }

// Pos implements sim.Device.
func (n *Node) Pos() geom.Point { return n.pos }

// IsLiar reports whether the node was built by NewLiar.
func (n *Node) IsLiar() bool { return n.liar }

// Complete reports whether every bit has been committed.
func (n *Node) Complete() bool { return n.complete }

// CompletedAt returns the completion round (0 for liars).
func (n *Node) CompletedAt() uint64 { return n.completedAt }

// CommittedBits returns the number of committed bits.
func (n *Node) CommittedBits() int { return n.nCommitted }

// Message returns the committed message once complete.
func (n *Node) Message() (bitcodec.Message, bool) {
	if !n.complete {
		return bitcodec.Message{}, false
	}
	var v uint64
	for i, b := range n.committed {
		if b == 1 {
			v |= 1 << uint(i)
		}
	}
	return bitcodec.NewMessage(v, n.sh.MsgLen), true
}

// QueueLen exposes the outgoing frame backlog (the paper's "traffic
// jam" discussion) for tests and metrics.
func (n *Node) QueueLen() int { return n.send.QueueLen() }

// Wake implements sim.Device.
func (n *Node) Wake(r uint64) sim.Step {
	_, slot, sub := n.sh.NS.At(r)
	start := r - uint64(sub)
	if n.cur.active && n.cur.start != start {
		n.cur.active = false
	}
	if !n.cur.active {
		n.beginSlot(start, slot)
	}
	st := n.act(sub)
	st.NextWake = n.nextWake(r)
	return st
}

func (n *Node) beginSlot(start uint64, slot int) {
	n.cur.active = true
	n.cur.start = start
	n.cur.slot = slot
	n.cur.stream = nil
	switch {
	case slot == n.mySlot:
		if p, ok := n.send.Current(); ok {
			n.cur.role = roleSender
			n.cur.tx = twobit.Sender{B1: p.B1, B2: p.B2}
		} else {
			n.cur.role = roleIdle
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

func (n *Node) act(sub int) sim.Step {
	switch n.cur.role {
	case roleSender:
		switch sub {
		case twobit.R1, twobit.R3, twobit.R5:
			if n.cur.tx.Transmits(sub) {
				kind := radio.KindData
				if sub == twobit.R5 {
					kind = radio.KindVeto
				}
				return sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: kind}}
			}
			return sim.Step{Action: sim.Sleep}
		default:
			return sim.Step{Action: sim.Listen}
		}
	case roleReceiver:
		switch sub {
		case twobit.R1, twobit.R3, twobit.R5:
			return sim.Step{Action: sim.Listen}
		default:
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
		n.cur.tx.Observe(sub, obs.Busy)
		if sub == twobit.R6 {
			n.send.SlotDone(n.cur.tx.Outcome() == twobit.Success)
		}
	case roleReceiver:
		n.cur.rx.Observe(sub, obs.Busy)
		if sub == twobit.R5 && n.cur.rx.Outcome() == twobit.Success {
			b1, b2 := n.cur.rx.Bits()
			if frame, done := n.cur.stream.fr.Accept(onehop.Pair{B1: b1, B2: b2}); done {
				n.handleFrame(r, n.cur.stream.nbr, n.cur.slot, frame)
			}
		}
	}
}

// handleFrame processes a fully received protocol message from neighbor
// `from` heard in `slot`.
func (n *Node) handleFrame(r uint64, from, slot int, frame []bool) {
	msg, err := bitcodec.Decode(frame)
	if err != nil {
		return // garbled (e.g. Byzantine-shaped) frame: drop
	}
	if msg.Index >= n.sh.MsgLen {
		return
	}
	switch msg.Type {
	case bitcodec.Source:
		// SOURCE messages are only authentic from the source's own
		// slot; the 1Hop stream then guarantees the source sent them.
		if slot != n.sh.NS.Slot[n.sh.SourceID] || from != n.sh.SourceID {
			return
		}
		n.commit(r, msg.Index, msg.Value)
	case bitcodec.Commit:
		n.addEvidence(r, msg.Index, evItem{resp: from, wit: from, val: msg.Value})
		n.relayHeard(from, msg.Index, msg.Value)
	case bitcodec.Heard:
		cause := n.resolveCause(from, msg.CauseSlot)
		if cause < 0 {
			return
		}
		n.addEvidence(r, msg.Index, evItem{resp: cause, wit: from, val: msg.Value})
	}
}

// relayHeard enqueues ⟨HEARD, cause, bit⟩ unless this node is a liar
// (liars suppress HEARDs), the relay is a duplicate, or the per-bit cap
// is reached.
func (n *Node) relayHeard(cause, index int, val bool) {
	if n.liar {
		return
	}
	k := heardKey{cause: cause, index: index, val: val}
	if n.heardSent[k] || n.heardCount[index][val] >= n.sh.HeardCap {
		return
	}
	n.heardSent[k] = true
	n.heardCount[index][val]++
	n.send.Enqueue(bitcodec.Msg{
		Type:      bitcodec.Heard,
		Index:     index,
		Value:     val,
		CauseSlot: n.sh.NS.Slot[cause],
	}.Encode())
}

// resolveCause maps a HEARD message's cause slot to the unique device
// in that slot within range of the reporting witness. Same-slot devices
// are more than 3R apart, so at most one can be the witness's neighbor.
func (n *Node) resolveCause(wit, causeSlot int) int {
	return n.sh.NS.SenderAt(n.sh.D, n.sh.D.Pos[wit], causeSlot)
}

// addEvidence records an item and re-evaluates the commit rule for the
// bit.
func (n *Node) addEvidence(r uint64, index int, it evItem) {
	if n.committed[index] >= 0 {
		return
	}
	for _, e := range n.evidence[index] {
		if e == it {
			return
		}
	}
	n.evidence[index] = append(n.evidence[index], it)
	if v, ok := n.checkCommit(index); ok {
		n.commit(r, index, v)
	}
}

// checkCommit applies the paper's commit rule to the evidence for one
// bit: t+1 items with distinct responsible devices, a single value, and
// all responsible devices and witnesses inside a common neighborhood.
// Candidate neighborhood centers are the involved devices and the node
// itself.
func (n *Node) checkCommit(index int) (val bool, ok bool) {
	items := n.evidence[index]
	for _, v := range []bool{false, true} {
		var centers []geom.Point
		centers = append(centers, n.pos)
		for _, it := range items {
			if it.val == v {
				centers = append(centers, n.sh.D.Pos[it.resp], n.sh.D.Pos[it.wit])
			}
		}
		for _, c := range centers {
			distinct := map[int]bool{}
			for _, it := range items {
				if it.val != v {
					continue
				}
				if !n.sh.D.Metric.Within(c, n.sh.D.Pos[it.resp], n.sh.D.R) {
					continue
				}
				if !n.sh.D.Metric.Within(c, n.sh.D.Pos[it.wit], n.sh.D.R) {
					continue
				}
				distinct[it.resp] = true
			}
			if len(distinct) >= n.sh.T+1 {
				return v, true
			}
		}
	}
	return false, false
}

// commit records bit index = val and enqueues the COMMIT relay.
func (n *Node) commit(r uint64, index int, val bool) {
	if n.committed[index] >= 0 {
		return
	}
	n.committed[index] = b2i(val)
	n.nCommitted++
	n.evidence[index] = nil // no longer needed
	n.send.Enqueue(bitcodec.Msg{Type: bitcodec.Commit, Index: index, Value: val}.Encode())
	if n.nCommitted == n.sh.MsgLen && !n.complete {
		n.complete = true
		n.completedAt = r
	}
}

func (n *Node) nextWake(r uint64) uint64 {
	_, slot, sub := n.sh.NS.At(r + 1)
	if sub != 0 {
		for _, s := range n.interest {
			if s == slot {
				return r + 1
			}
		}
	}
	best := uint64(1<<63 - 1)
	for _, s := range n.interest {
		if w := n.sh.NS.NextStart(r+1, s); w < best {
			best = w
		}
	}
	return best
}

// Source is the MultiPathRB broadcast source: it streams ⟨SOURCE, b_i⟩
// frames for every message bit through its own schedule slot.
type Source struct {
	sh   *Shared
	id   int
	pos  geom.Point
	send *onehop.FrameSender
	tx   twobit.Sender
	on   bool   // a 2Bit exchange is in flight
	cur  uint64 // active slot start (valid when on)
}

// NewSource builds the source device broadcasting msg.
func NewSource(sh *Shared, msg bitcodec.Message) *Source {
	if msg.Len != sh.MsgLen {
		panic("multipath: source message length mismatch")
	}
	s := &Source{sh: sh, id: sh.SourceID, pos: sh.D.Pos[sh.SourceID], send: onehop.NewFrameSender()}
	for i := 0; i < msg.Len; i++ {
		s.send.Enqueue(bitcodec.Msg{Type: bitcodec.Source, Index: i, Value: msg.Bit(i)}.Encode())
	}
	return s
}

// ID implements sim.Device.
func (s *Source) ID() int { return s.id }

// Pos implements sim.Device.
func (s *Source) Pos() geom.Point { return s.pos }

// Done reports whether all SOURCE frames have been delivered.
func (s *Source) Done() bool { return s.send.Idle() }

// Wake implements sim.Device.
func (s *Source) Wake(r uint64) sim.Step {
	if s.send.Idle() {
		return sim.Step{Action: sim.Sleep, NextWake: sim.NoWake}
	}
	mySlot := s.sh.NS.Slot[s.id]
	_, slot, sub := s.sh.NS.At(r)
	start := r - uint64(sub)
	if slot != mySlot {
		return sim.Step{Action: sim.Sleep, NextWake: s.sh.NS.NextStart(r+1, mySlot)}
	}
	if !s.on || s.cur != start {
		p, _ := s.send.Current()
		s.tx = twobit.Sender{B1: p.B1, B2: p.B2}
		s.on = true
		s.cur = start
	}
	var st sim.Step
	switch sub {
	case twobit.R1, twobit.R3, twobit.R5:
		if s.tx.Transmits(sub) {
			kind := radio.KindData
			if sub == twobit.R5 {
				kind = radio.KindVeto
			}
			st = sim.Step{Action: sim.Transmit, Frame: radio.Frame{Kind: kind}}
		} else {
			st = sim.Step{Action: sim.Sleep}
		}
	default:
		st = sim.Step{Action: sim.Listen}
	}
	if sub < twobit.R6 {
		st.NextWake = r + 1
	} else {
		st.NextWake = s.sh.NS.NextStart(r+1, mySlot)
	}
	return st
}

// Deliver implements sim.Device.
func (s *Source) Deliver(r uint64, obs radio.Obs) {
	if !s.on || s.cur > r || r-s.cur >= uint64(s.sh.NS.SlotLen) {
		return
	}
	sub := int(r - s.cur)
	s.tx.Observe(sub, obs.Busy)
	if sub == twobit.R6 {
		s.send.SlotDone(s.tx.Outcome() == twobit.Success)
		s.on = false
	}
}
