// Package sim is the discrete-event, round-synchronous radio network
// simulator. It replaces the paper's WSNet/Worldsens event simulator.
//
// Time is divided into rounds ("Time is divided into slots, which we
// refer to as rounds"). In each round every awake device either
// transmits one frame, listens, or sleeps; the medium then resolves, for
// every listener, what it observed (silence, a decoded frame, or
// undecodable activity). Devices that sleep consume no cycles: the
// engine keeps a wake calendar and fast-forwards over rounds in which no
// device is scheduled, which is what makes 4000-node, million-round
// simulations practical.
//
// The engine is split along a transport seam (see driver.go):
//
//   - The round clock (clock.go) owns wake scheduling — a two-level
//     hierarchical wheel with an unsorted far-overflow list, or the
//     legacy map+heap calendar — plus stop conditions and per-round
//     wake deduplication.
//   - The round resolver (resolver.go) owns round resolution: phase A
//     calls Wake on every scheduled device and collects the actions;
//     phase B resolves the channel and calls Deliver on every listener.
//     It is the default RoundDriver implementation; alternative
//     transports (for example internal/medium/net's UDP loopback) plug
//     in behind the same interface via UseTransport.
//
// Both phases are data-parallel across devices and the engine
// optionally fans them out over a worker pool with a work-stealing
// cursor, so hot spots (for example jammed regions, whose listeners are
// expensive to resolve) do not serialize one worker's chunk.
//
// The engine's hot loops are index-based and allocation-free after
// warm-up. Devices get a compact index at Add; wake scheduling, step
// collection and delivery all operate on dense slices keyed by that
// index, and per-round wake-up deduplication uses a per-device epoch
// stamp instead of sorting. The wake calendar is a two-level
// hierarchical wheel (see clock.go): a ring of one-round slots for the
// current coarse bucket, a ring of coarse buckets covering the next
// ~16.7M rounds, and an unsorted overflow beyond that, so arbitrarily
// long cycles never trigger a sort (DisableWheel selects the legacy
// map+heap calendar for equivalence testing). Channel resolution for
// dense rounds buckets the round's transmissions into a spatial hash
// once (radio.TxSet) and resolves listeners in spatial-cell order,
// sharing one candidate gather — and, for the built-in media, the
// listener-independent half of the per-cell math (radio.CellMedium) —
// per cell; observations are bit-for-bit identical to the linear scan
// on every path. Devices backed by flat arrays can opt into batched
// wake and delivery sweeps (BlockDevice), removing the per-device
// interface call from both phases.
//
// Determinism is preserved because media are pure functions and each
// device only mutates itself.
package sim

import (
	"fmt"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

// Action is what a device does with its radio during one round.
type Action uint8

// Possible radio actions.
const (
	// Sleep means the radio is off: nothing is sent, nothing observed.
	Sleep Action = iota
	// Listen means the device observes the channel this round.
	Listen
	// Transmit means the device broadcasts a frame this round. Radios
	// are half-duplex: a transmitting device observes nothing.
	Transmit
)

// NoWake is the NextWake value meaning "do not schedule me again".
const NoWake = ^uint64(0)

// Step is a device's decision for the current round plus the next round
// in which it wants to be woken (NoWake to unschedule).
type Step struct {
	Action   Action
	Frame    radio.Frame
	NextWake uint64
}

// Device is a simulated radio device. Wake is called in every round for
// which the device is scheduled and must return its action for that
// round; if the action is Listen, Deliver is called later in the same
// round with the channel observation. Implementations are driven from a
// single goroutine at a time and need no internal locking.
type Device interface {
	// ID returns the device's stable identifier, unique in the engine.
	ID() int
	// Pos returns the device's position. Positions are fixed: the
	// engine caches the value once at Add.
	Pos() geom.Point
	// Wake is called at the start of round r.
	Wake(r uint64) Step
	// Deliver reports the observation for round r after a Listen.
	Deliver(r uint64, obs radio.Obs)
}

// Engine drives a set of devices over a shared medium.
type Engine struct {
	Medium radio.Medium
	// Workers is the number of goroutines used per phase; values <= 1
	// run sequentially. Parallelism only pays off for very dense
	// rounds; experiment-level fan-out is usually preferable.
	Workers int
	// OnRound, if non-nil, is invoked after each simulated round with
	// the transmissions of that round (for tracing). Transmissions are
	// in ascending transmitter-id order.
	OnRound func(r uint64, txs []radio.Tx)
	// OnDeliver, if non-nil, is passed to the round driver's Deliver
	// and invoked once per listener observation, in listener wake
	// order, after the round's channel has been resolved (for rx
	// tracing). The order is deterministic across delivery paths and
	// worker counts.
	OnDeliver ObsHook
	// DisableIndex forces the legacy O(listeners × transmissions)
	// linear channel resolution even when the medium supports indexed
	// observation. The indexed path produces identical observations;
	// the knob exists for equivalence testing, benchmarking, and
	// wrapper media that override Observe but inherit ObserveSet or
	// ObserveCand by embedding (see radio.IndexedMedium).
	DisableIndex bool
	// DisableWheel routes wake-up scheduling through the legacy
	// map+heap calendar instead of the bucketed wheel. Both schedule
	// and fire identically; the knob exists for equivalence testing
	// and benchmarking. The engine drains both structures, so the knob
	// may be flipped at any time.
	DisableWheel bool

	// Dense per-device tables, keyed by the compact index assigned at
	// Add. The hot loops never touch a map.
	devices []Device
	ids     []int          // index -> device id
	pos     []geom.Point   // index -> position (cached at Add)
	txCount []uint64       // index -> transmissions made
	blockH  []BlockHandler // index -> batch handler (nil: per-device calls)
	blockIx []uint32       // index -> handle within its block handler
	batched bool           // any device opted into batching

	// id -> index lookup (Add/TxCount only). Small non-negative ids —
	// the common case: experiments number devices 0..n-1 — live in a
	// dense slice (value index+1, 0 = absent); anything else falls back
	// to the map.
	idIx   []int32
	devIdx map[int]int

	// Two-level hierarchical wake wheel (see clock.go): wheel holds the
	// current coarse bucket's rounds one slot each, wheel1 holds the
	// next wheel1Size-1 coarse buckets one slot each, spill is the
	// unsorted overflow beyond the level-1 horizon.
	wheel       [][]int32
	wheelFree   [][]int32 // recycled empty level-0 slot arrays
	wheelBase   uint64
	wheelCount  int
	wheel1      [][]spillEntry
	wheel1Count int
	spill       []spillEntry
	spillMin    uint64

	// Legacy calendar (DisableWheel).
	heap     roundHeap
	calendar map[uint64][]int32 // round -> device indices (may contain dups)

	round  uint64 // next round to execute
	rounds uint64 // rounds actually resolved (non-empty)

	// Per-round wake deduplication scratch (clock side).
	wakeStamp []int64 // index -> r+1 of the last round the device woke in
	wakeIxs   []int32

	// drv resolves rounds; nil selects the default in-process resolver
	// on first use (see UseTransport).
	drv RoundDriver

	// flatDelivery forces phase B to iterate listeners in wake order
	// with per-listener spatial queries even when the medium supports
	// candidate resolution (equivalence tests only).
	flatDelivery bool
}

// NewEngine returns an engine over the given medium.
func NewEngine(m radio.Medium) *Engine {
	return &Engine{
		Medium: m,
		devIdx: make(map[int]int),
		wheel:  make([][]int32, wheelSize),
		wheel1: make([][]spillEntry, wheel1Size),
	}
}

// lookupIx returns the compact index for a device id.
func (e *Engine) lookupIx(id int) (int, bool) {
	if id >= 0 && id < len(e.idIx) {
		ix := e.idIx[id]
		return int(ix) - 1, ix != 0
	}
	ix, ok := e.devIdx[id]
	return ix, ok
}

// setIx records id -> ix, keeping ids that stay roughly dense in the
// flat table and spilling sparse or negative ones to the map.
func (e *Engine) setIx(id, ix int) {
	if id >= 0 && id < 2*len(e.devices)+64 {
		for len(e.idIx) <= id {
			e.idIx = append(e.idIx, 0)
		}
		e.idIx[id] = int32(ix) + 1
		return
	}
	e.devIdx[id] = ix
}

// Add registers a device and schedules its first wake-up. It panics on
// duplicate ids. Devices implementing BlockDevice have their batch
// handler cached here so the hot phases can sweep whole blocks.
func (e *Engine) Add(d Device, firstWake uint64) {
	id := d.ID()
	if _, dup := e.lookupIx(id); dup {
		panic(fmt.Sprintf("sim: duplicate device id %d", id))
	}
	ix := len(e.devices)
	e.devices = append(e.devices, d)
	e.setIx(id, ix)
	e.ids = append(e.ids, id)
	e.pos = append(e.pos, d.Pos())
	e.txCount = append(e.txCount, 0)
	e.wakeStamp = append(e.wakeStamp, 0)
	var h BlockHandler
	var bix uint32
	if bd, ok := d.(BlockDevice); ok {
		h, bix = bd.Block()
	}
	e.blockH = append(e.blockH, h)
	e.blockIx = append(e.blockIx, bix)
	if h != nil {
		e.batched = true
	}
	e.schedule(int32(ix), firstWake)
}

// Devices returns the number of registered devices.
func (e *Engine) Devices() int { return len(e.devices) }

// Batched reports whether any registered device opted into block
// sweeps (see BlockDevice).
func (e *Engine) Batched() bool { return e.batched }

// DeviceAt returns the device with compact index ix (0 <= ix <
// Devices(), in Add order). Transports use it to hand each device to
// the endpoint that hosts it.
func (e *Engine) DeviceAt(ix int) Device { return e.devices[ix] }

// Round returns the next round number to be executed.
func (e *Engine) Round() uint64 { return e.round }

// ResolvedRounds returns the number of non-empty rounds resolved so far.
func (e *Engine) ResolvedRounds() uint64 { return e.rounds }

// TxCount returns the number of transmissions device id has made.
func (e *Engine) TxCount(id int) uint64 {
	ix, ok := e.lookupIx(id)
	if !ok {
		return 0
	}
	return e.txCount[ix]
}

// TotalTx returns the total number of transmissions by all devices.
func (e *Engine) TotalTx() uint64 {
	var t uint64
	for _, c := range e.txCount {
		t += c
	}
	return t
}
