package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"authradio/internal/radio"
)

// This file is the round resolver: the default RoundDriver. Phase A
// (Begin) wakes the round's devices through the Caller and folds their
// steps into transmissions, listeners, tx counts and follow-up
// wake-ups; phase B (Deliver) resolves the channel for every listener,
// choosing between the linear scan, the spatial transmission index, and
// the cell-sharded candidate path. All bookkeeping lives here so that
// every transport behind the seam shares it bit for bit.

// minIndexedTxs is the round density below which building the spatial
// transmission index costs more than the linear scans it saves.
const minIndexedTxs = 16

// resolver implements RoundDriver. Per-round scratch is reused across
// rounds, and every parallel sweep runs off the resolver-owned work
// descriptor instead of a per-round closure, so rounds are
// allocation-free after warm-up on every path.
type resolver struct {
	e    *Engine
	call Caller
	// direct is true when call is the in-process directCaller; the hot
	// loops then bypass the Caller dispatch so the sim path costs
	// exactly what it did before the seam existed.
	direct bool

	// w describes the sweep parallelDo is running (see work).
	w work

	steps     []Step
	hnd       []uint32 // phase-A handle scratch, parallel to steps
	txs       []radio.Tx
	listenIxs []int32
	txSet     radio.TxSet
	cellIdx   []int32     // listener -> spatial cell
	cellStart []int32     // cell -> offset into cellOrder (CSR)
	cellOrder []int32     // listener indices grouped by cell
	shardEnd  []int32     // phase-B shard -> exclusive end cell
	obsRec    []radio.Obs // index -> observation (only when a hook is set)

	// seqScratch is the sequential phase-B scratch; parallel workers
	// draw theirs from cellPool instead.
	seqScratch *cellScratch
}

// job selects the per-unit body of a parallel sweep.
type job uint8

const (
	jobWake       job = iota // phase A: Device.Wake per wake index
	jobCallerWake            // phase A: Caller.Wake per wake index
	jobChunk                 // phase A: batched sweep per wakeChunk of the wake set
	jobObserve               // phase B: Medium.Observe over all transmissions per listener
	jobObserveSet            // phase B: IndexedMedium.ObserveSet per listener
	jobShard                 // phase B: one deliverCells shard per unit
)

// work is the descriptor of the sweep parallelDo runs: which job, the
// round, and the inputs the job reads beyond the resolver's own
// scratch. It is written before a sweep and only read during it, so
// workers share it without synchronization, and reusing it keeps the
// per-round path free of escaping closures.
type work struct {
	job   job
	r     uint64
	wakes []int32     // phase A: the round's wake set
	rec   []radio.Obs // phase B: observation record, nil without a hook

	im     radio.IndexedMedium   // jobObserveSet
	cm     radio.CandidateMedium // jobShard
	cellM  radio.CellMedium      // jobShard: non-nil for cell-shared media
	queryR float64               // jobShard: candidate gather radius
	batch  bool                  // jobShard: deliver per same-handler run
}

// Phase-A and per-listener sweeps fan out only with at least
// minPerWorker units per worker, and workers claim blockSize units at a
// time.
const (
	minPerWorker = 16
	blockSize    = 16
)

// Begin runs phase A: wake devices, collect steps, fold transmissions
// and listeners, and schedule next wakes. When block devices are
// registered and the caller is in-process, the wake sweep batches
// contiguous runs of same-handler devices into one WakeBlock call
// instead of one interface call per device.
func (v *resolver) Begin(r uint64, wakes []int32) {
	e := v.e
	if cap(v.steps) < len(wakes) {
		v.steps = make([]Step, len(wakes))
	}
	v.steps = v.steps[:len(wakes)]
	v.w = work{r: r, wakes: wakes}
	switch {
	case v.direct && e.batched:
		// hnd mirrors steps index-for-index; chunks touch disjoint
		// ranges, so the shared scratch is race-free and the sweep
		// stays allocation-free (a chunk-local buffer would escape
		// through the WakeBlock interface call and heap-allocate per
		// chunk).
		if cap(v.hnd) < len(wakes) {
			v.hnd = make([]uint32, len(wakes))
		}
		v.hnd = v.hnd[:len(wakes)]
		v.w.job = jobChunk
		v.parallelDo((len(wakes)+wakeChunk-1)/wakeChunk, 1, 1)
	case v.direct:
		v.w.job = jobWake
		v.parallelDo(len(wakes), minPerWorker, blockSize)
	default:
		v.w.job = jobCallerWake
		v.parallelDo(len(wakes), minPerWorker, blockSize)
	}

	// Collect transmissions and listeners, and schedule next wakes.
	v.txs = v.txs[:0]
	v.listenIxs = v.listenIxs[:0]
	srcSorted := true
	lastSrc := math.MinInt
	for i, st := range v.steps {
		ix := wakes[i]
		switch st.Action {
		case Transmit:
			f := st.Frame
			f.Src = e.ids[ix]
			if f.Src < lastSrc {
				srcSorted = false
			}
			lastSrc = f.Src
			v.txs = append(v.txs, radio.Tx{Pos: e.pos[ix], Frame: f})
			e.txCount[ix]++
		case Listen:
			v.listenIxs = append(v.listenIxs, ix)
		}
		if st.NextWake != NoWake {
			if st.NextWake <= r {
				panic(fmt.Sprintf("sim: device %d scheduled non-future wake %d at round %d", e.ids[ix], st.NextWake, r))
			}
			e.schedule(ix, st.NextWake)
		}
	}
	// Canonical transmission order: ascending transmitter id,
	// independent of wake bucketing. Media accumulate interference in
	// transmission order, so this keeps observations (and OnRound
	// traces) bit-for-bit identical across calendar knobs. Wake order
	// usually is id order already, making the check free.
	if !srcSorted {
		slices.SortFunc(v.txs, txBySrc)
	}
}

// txBySrc orders transmissions by transmitter id.
func txBySrc(a, b radio.Tx) int { return cmp.Compare(a.Frame.Src, b.Frame.Src) }

// wakeChunkRange is the batched phase-A body over wake indices [lo,
// hi): contiguous same-handler runs go to one WakeBlock call, devices
// without a handler to Wake.
func (v *resolver) wakeChunkRange(lo, hi int) {
	e, r := v.e, v.w.r
	steps, hnd, wakes := v.steps, v.hnd, v.w.wakes
	i := lo
	for i < hi {
		h := e.blockH[wakes[i]]
		j := i + 1
		for j < hi && e.blockH[wakes[j]] == h {
			j++
		}
		if h == nil {
			for k := i; k < j; k++ {
				steps[k] = e.devices[wakes[k]].Wake(r)
			}
		} else {
			for k := i; k < j; k++ {
				hnd[k] = e.blockIx[wakes[k]]
			}
			h.WakeBlock(r, hnd[i:j], steps[i:j])
		}
		i = j
	}
}

// Collect returns the transmissions folded by the preceding Begin.
func (v *resolver) Collect(r uint64) []radio.Tx { return v.txs }

// Deliver runs phase B: resolve the channel for each listener. For
// dense rounds over an indexed medium, bucket the transmissions into a
// spatial hash once and share it across all listeners, so each listener
// examines only transmissions within sense range instead of the whole
// round: O(listeners × local) instead of O(listeners × txs). All paths
// produce bit-for-bit identical observations (media are pure functions
// of (round, listener, txs)).
func (v *resolver) Deliver(r uint64, hook ObsHook) {
	if len(v.listenIxs) == 0 {
		return
	}
	v.w = work{r: r}
	if hook != nil {
		if cap(v.obsRec) < len(v.e.devices) {
			v.obsRec = make([]radio.Obs, len(v.e.devices))
		}
		v.w.rec = v.obsRec[:len(v.e.devices)]
	}
	v.resolve()
	if hook != nil {
		// Emit sequentially in listener wake order so rx traces are
		// stable no matter which delivery path or worker count
		// resolved the round.
		for _, ix := range v.listenIxs {
			hook(r, v.e.ids[ix], v.w.rec[ix])
		}
	}
}

// deliverTo forwards one observation to its listener and records it
// when an observation hook is active this round.
func (v *resolver) deliverTo(ix int32, obs radio.Obs) {
	if v.direct {
		v.e.devices[ix].Deliver(v.w.r, obs)
	} else {
		v.call.Deliver(ix, v.w.r, obs)
	}
	if v.w.rec != nil {
		v.w.rec[ix] = obs
	}
}

// resolve picks the channel-resolution path for the round's listeners.
func (v *resolver) resolve() {
	e := v.e
	if !e.DisableIndex && len(v.txs) >= minIndexedTxs {
		// Index only for finite sense ranges: an unbounded medium gains
		// nothing from spatial bucketing.
		if sr := e.Medium.SenseRange(); sr > 0 && !math.IsInf(sr, 1) {
			if cm, ok := e.Medium.(radio.CandidateMedium); ok && !e.flatDelivery {
				v.txSet.Reset(v.txs, sr)
				v.deliverCells(cm, sr*radio.SenseMargin)
				return
			}
			if im, ok := e.Medium.(radio.IndexedMedium); ok {
				v.txSet.Reset(v.txs, sr)
				v.w.job, v.w.im = jobObserveSet, im
				v.parallelDo(len(v.listenIxs), minPerWorker, blockSize)
				return
			}
		}
	}
	v.w.job = jobObserve
	v.parallelDo(len(v.listenIxs), minPerWorker, blockSize)
}

// shardTarget is the number of listeners a phase-B shard aims for:
// small enough that work stealing can rebalance around expensive cells,
// large enough to amortize the steal.
const shardTarget = 64

// cellScratch is one worker's phase-B scratch: the candidate buffer for
// the plain candidate path, the CellState for cell-shared media, and
// the per-cell observation/handle buffers for batched delivery.
type cellScratch struct {
	cand []int32
	cs   radio.CellState
	obs  []radio.Obs
	hnd  []uint32
}

// cellPool recycles phase-B scratch across the workers of concurrent
// engines; the sequential path uses a resolver-owned scratch instead so
// steady-state rounds stay allocation-free even across GC cycles.
var cellPool = sync.Pool{New: func() interface{} { return new(cellScratch) }}

// deliverCells resolves the round's listeners in spatial-cell order:
// listeners are grouped by the transmission index's cells (counting
// sort, allocation-free after warm-up), one candidate gather per cell
// is shared by every listener in it — for cell-shared media
// (radio.CellMedium) including the listener-independent half of the
// math — and cells are packed into contiguous shards claimed by
// workers through an atomic cursor. Nearby listeners therefore share
// both the candidate work and its cache lines, and a jammed
// (expensive) region is split across many shards instead of
// serializing one worker's chunk. When block devices are registered,
// each cell's observations are delivered in one DeliverBlock call per
// contiguous same-handler run instead of one interface call per
// listener.
func (v *resolver) deliverCells(cm radio.CandidateMedium, queryR float64) {
	e := v.e
	listeners := v.listenIxs
	nl := len(listeners)
	cells := v.txSet.Cells()

	// Counting sort of listeners by cell, building the CSR offsets.
	if cap(v.cellStart) < cells+1 {
		v.cellStart = make([]int32, cells+1)
	}
	v.cellStart = v.cellStart[:cells+1]
	cs := v.cellStart
	for i := range cs {
		cs[i] = 0
	}
	if cap(v.cellIdx) < nl {
		v.cellIdx = make([]int32, nl)
	}
	ci := v.cellIdx[:nl]
	for j, ix := range listeners {
		c := int32(v.txSet.CellOf(e.pos[ix]))
		ci[j] = c
		cs[c+1]++
	}
	for c := 1; c <= cells; c++ {
		cs[c] += cs[c-1]
	}
	if cap(v.cellOrder) < nl {
		v.cellOrder = make([]int32, nl)
	}
	v.cellOrder = v.cellOrder[:nl]
	ord := v.cellOrder
	for j, ix := range listeners {
		c := ci[j]
		ord[cs[c]] = ix
		cs[c]++
	}
	for c := cells; c > 0; c-- {
		cs[c] = cs[c-1]
	}
	cs[0] = 0

	// Pack cells into contiguous shards of ~shardTarget listeners.
	v.shardEnd = v.shardEnd[:0]
	cut := int32(0)
	for c := 0; c < cells; c++ {
		if cs[c+1]-cut >= shardTarget {
			v.shardEnd = append(v.shardEnd, int32(c+1))
			cut = cs[c+1]
		}
	}
	if cut < int32(nl) {
		v.shardEnd = append(v.shardEnd, int32(cells))
	}

	v.w.job = jobShard
	v.w.cm = cm
	v.w.cellM, _ = cm.(radio.CellMedium)
	v.w.queryR = queryR
	v.w.batch = v.direct && e.batched
	v.parallelDo(len(v.shardEnd), 1, 1)
}

// runShard resolves and delivers the listeners of phase-B shard s,
// cell by cell, with one candidate gather per cell.
func (v *resolver) runShard(s int, sc *cellScratch) {
	e, w := v.e, &v.w
	cs, ord := v.cellStart, v.cellOrder
	lo := int32(0)
	if s > 0 {
		lo = v.shardEnd[s-1]
	}
	for c := lo; c < v.shardEnd[s]; c++ {
		a, b := cs[c], cs[c+1]
		if a == b {
			continue
		}
		// One candidate gather per cell, over the bounding box of the
		// cell's listeners (their positions may clamp into a border
		// cell from outside the grid).
		pmin := e.pos[ord[a]]
		pmax := pmin
		for _, ix := range ord[a+1 : b] {
			p := e.pos[ix]
			pmin.X = math.Min(pmin.X, p.X)
			pmin.Y = math.Min(pmin.Y, p.Y)
			pmax.X = math.Max(pmax.X, p.X)
			pmax.Y = math.Max(pmax.Y, p.Y)
		}
		if w.cellM != nil {
			w.cellM.BeginCell(&sc.cs, w.r, &v.txSet, pmin, pmax)
		} else {
			sc.cand = v.txSet.GatherBox(sc.cand[:0], pmin, pmax, w.queryR)
		}
		ixs := ord[a:b]
		if !w.batch {
			for _, ix := range ixs {
				v.deliverTo(ix, v.observeCell(sc, ix))
			}
			continue
		}
		// Batched delivery: resolve the cell into the observation
		// buffer, then deliver per contiguous same-handler run.
		sc.obs = sc.obs[:0]
		for _, ix := range ixs {
			sc.obs = append(sc.obs, v.observeCell(sc, ix))
		}
		k := 0
		for k < len(ixs) {
			h := e.blockH[ixs[k]]
			j := k + 1
			for j < len(ixs) && e.blockH[ixs[j]] == h {
				j++
			}
			bd, ok := h.(BlockDeliverer)
			if !ok {
				for t := k; t < j; t++ {
					v.deliverTo(ixs[t], sc.obs[t])
				}
				k = j
				continue
			}
			sc.hnd = sc.hnd[:0]
			for t := k; t < j; t++ {
				sc.hnd = append(sc.hnd, e.blockIx[ixs[t]])
			}
			bd.DeliverBlock(w.r, sc.hnd, sc.obs[k:j])
			if w.rec != nil {
				for t := k; t < j; t++ {
					w.rec[ixs[t]] = sc.obs[t]
				}
			}
			k = j
		}
	}
}

// observeCell resolves listener ix against the cell prepared in sc.
func (v *resolver) observeCell(sc *cellScratch, ix int32) radio.Obs {
	e, w := v.e, &v.w
	if w.cellM != nil {
		return w.cellM.ObserveCell(&sc.cs, w.r, e.ids[ix], e.pos[ix])
	}
	return w.cm.ObserveCand(w.r, e.ids[ix], e.pos[ix], v.txs, sc.cand)
}

// wakeChunk is the index-block size of the batched phase-A sweep:
// large enough that one WakeBlock call amortizes across hundreds of
// devices, small enough that work stealing still rebalances.
const wakeChunk = 256

// run executes the descriptor's job over units [lo, hi) with phase-B
// scratch sc. A unit is a wake index (jobWake, jobCallerWake), a
// wakeChunk of wake indices (jobChunk), a listener (jobObserve,
// jobObserveSet) or a shard (jobShard).
func (v *resolver) run(lo, hi int, sc *cellScratch) {
	e, r := v.e, v.w.r
	switch v.w.job {
	case jobWake:
		steps, wakes := v.steps, v.w.wakes
		for i := lo; i < hi; i++ {
			steps[i] = e.devices[wakes[i]].Wake(r)
		}
	case jobCallerWake:
		steps, wakes := v.steps, v.w.wakes
		for i := lo; i < hi; i++ {
			steps[i] = v.call.Wake(wakes[i], r)
		}
	case jobChunk:
		for b := lo; b < hi; b++ {
			v.wakeChunkRange(b*wakeChunk, min((b+1)*wakeChunk, len(v.w.wakes)))
		}
	case jobObserve:
		for _, ix := range v.listenIxs[lo:hi] {
			v.deliverTo(ix, e.Medium.Observe(r, e.ids[ix], e.pos[ix], v.txs))
		}
	case jobObserveSet:
		for _, ix := range v.listenIxs[lo:hi] {
			v.deliverTo(ix, v.w.im.ObserveSet(r, e.ids[ix], e.pos[ix], &v.txSet))
		}
	case jobShard:
		for s := lo; s < hi; s++ {
			v.runShard(s, sc)
		}
	}
}

// fanWorkers is the number of workers a sweep of n units gets: at
// most workers, and only as many as have perWorker units each. At most
// one means the sweep runs inline.
func fanWorkers(workers, n, perWorker int) int {
	return min(workers, n/perWorker)
}

// parallelDo runs the descriptor's job over units [0, n). Sequentially
// it is one inline run over every unit with the resolver's own scratch.
// With Workers > 1 and at least perWorker units per worker it fans out:
// workers claim blocks of the given size through an atomic cursor, so
// uneven per-unit cost (a jammed region's expensive listeners)
// rebalances instead of stretching one pre-assigned chunk.
func (v *resolver) parallelDo(n, perWorker, block int) {
	w := fanWorkers(v.e.Workers, n, perWorker)
	if w <= 1 {
		v.run(0, n, v.seqScratch)
		return
	}
	blocks := (n + block - 1) / block
	var cursor atomic.Int32
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			sc := cellPool.Get().(*cellScratch)
			for {
				b := int(cursor.Add(1)) - 1
				if b >= blocks {
					break
				}
				v.run(b*block, min((b+1)*block, n), sc)
			}
			cellPool.Put(sc)
		}()
	}
	wg.Wait()
}
