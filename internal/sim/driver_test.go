package sim

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

// legacyEngine is an independent, straight-line reimplementation of the
// pre-seam engine semantics: a map calendar, sequential wakes in
// scheduling order with per-round dedup, src-sorted transmissions, and
// a linear Observe per listener. TestDriverMatchesLegacyEngine pins the
// refactored clock/resolver/driver stack against it bit for bit.
type legacyEngine struct {
	medium  radio.Medium
	devices []Device
	pos     []geom.Point
	cal     map[uint64][]int
}

func (le *legacyEngine) add(d Device, firstWake uint64) {
	le.devices = append(le.devices, d)
	le.pos = append(le.pos, d.Pos())
	le.schedule(len(le.devices)-1, firstWake)
}

func (le *legacyEngine) schedule(ix int, r uint64) {
	if r == NoWake {
		return
	}
	if le.cal == nil {
		le.cal = make(map[uint64][]int)
	}
	le.cal[r] = append(le.cal[r], ix)
}

func (le *legacyEngine) run(maxRound uint64) uint64 {
	resolved := uint64(0)
	for {
		r, ok := uint64(0), false
		for cr := range le.cal {
			if !ok || cr < r {
				r, ok = cr, true
			}
		}
		if !ok || r >= maxRound {
			return resolved
		}
		bkt := le.cal[r]
		delete(le.cal, r)
		seen := make(map[int]bool)
		var wakes []int
		for _, ix := range bkt {
			if !seen[ix] {
				seen[ix] = true
				wakes = append(wakes, ix)
			}
		}
		var txs []radio.Tx
		var listeners []int
		for _, ix := range wakes {
			st := le.devices[ix].Wake(r)
			switch st.Action {
			case Transmit:
				f := st.Frame
				f.Src = le.devices[ix].ID()
				txs = append(txs, radio.Tx{Pos: le.pos[ix], Frame: f})
			case Listen:
				listeners = append(listeners, ix)
			}
			le.schedule(ix, st.NextWake)
		}
		slices.SortFunc(txs, func(a, b radio.Tx) int { return cmp.Compare(a.Frame.Src, b.Frame.Src) })
		for _, ix := range listeners {
			le.devices[ix].Deliver(r, le.medium.Observe(r, le.devices[ix].ID(), le.pos[ix], txs))
		}
		resolved++
	}
}

// buildChaosLegacy mirrors buildChaos (same positions, first wakes, and
// duplicate manual schedules) on the reference engine.
func buildChaosLegacy(le *legacyEngine, n int, seed uint64) []*chaosDevice {
	side := 1
	for side*side < n {
		side++
	}
	devs := make([]*chaosDevice, n)
	for i := range devs {
		p := geom.Point{X: float64(i % side), Y: float64(i / side)}
		switch i % 97 {
		case 13:
			p = geom.Point{X: -50, Y: p.Y}
		case 51:
			p = geom.Point{X: p.X + 500, Y: p.Y + 500}
		}
		devs[i] = &chaosDevice{id: i, pos: p, seed: seed}
		le.add(devs[i], uint64(1+i%5))
	}
	le.schedule(0, 3)
	le.schedule(0, 3)
	le.schedule(1, wheelSize*2+17)
	le.schedule(1, wheelSize*2+17)
	return devs
}

// TestDriverMatchesLegacyEngine is the seam's anchor property: the
// clock + resolver + driver stack, on every delivery path and calendar
// knob, must reproduce the plain from-first-principles round loop
// exactly — same wake rounds, same observations, same resolved-round
// count — under the chaos workload on both built-in media.
func TestDriverMatchesLegacyEngine(t *testing.T) {
	media := map[string]func() radio.Medium{
		"disk-linf": func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} },
		"friis": func() radio.Medium {
			m := radio.NewFriisMedium(2.5, 33)
			m.LossProb = 0.3
			return m
		},
	}
	const (
		n        = 200
		seed     = 11
		maxRound = 12_000
	)
	for name, mk := range media {
		le := &legacyEngine{medium: mk()}
		legacyDevs := buildChaosLegacy(le, n, seed)
		legacyResolved := le.run(maxRound)

		for _, cfg := range []struct {
			label        string
			disableWheel bool
			linear       bool
			workers      int
		}{
			{label: "default"},
			{label: "heap-calendar", disableWheel: true},
			{label: "linear", linear: true},
			{label: "parallel", workers: 4},
		} {
			e := NewEngine(mk())
			e.DisableWheel = cfg.disableWheel
			e.DisableIndex = cfg.linear
			e.Workers = cfg.workers
			devs := buildChaos(e, n, seed)
			e.RunUntil(nil, 0, maxRound)
			if e.ResolvedRounds() != legacyResolved {
				t.Fatalf("%s/%s: driver resolved %d rounds, legacy %d", name, cfg.label, e.ResolvedRounds(), legacyResolved)
			}
			chaosEqual(t, name+"/"+cfg.label+" vs legacy", legacyDevs, devs)
		}
	}
}

// countingCaller forwards to the in-process devices while tallying the
// calls routed through the seam — the in-process analog of a transport
// endpoint.
type countingCaller struct {
	e               *Engine
	wakes, delivers atomic.Int64
}

func (c *countingCaller) Wake(ix int32, r uint64) Step {
	c.wakes.Add(1)
	return c.e.devices[ix].Wake(r)
}

func (c *countingCaller) Deliver(ix int32, r uint64, obs radio.Obs) {
	c.delivers.Add(1)
	c.e.devices[ix].Deliver(r, obs)
}

// callerTransport installs a resolver driver over a countingCaller.
type callerTransport struct{ cc **countingCaller }

func (t callerTransport) Driver(e *Engine) (RoundDriver, error) {
	c := &countingCaller{e: e}
	*t.cc = c
	return NewResolverDriver(e, c), nil
}

// TestCallerSeamTransparent proves the Caller indirection — the seam a
// transport hangs its endpoints on — does not perturb a single
// observation or wake: a resolver routed through a custom Caller
// matches the direct path exactly, and every device callback really
// flows through the Caller.
func TestCallerSeamTransparent(t *testing.T) {
	mk := func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} }

	direct := NewEngine(mk())
	directDevs := buildChaos(direct, 200, 5)
	direct.RunUntil(nil, 0, 10_000)

	routed := NewEngine(mk())
	var cc *countingCaller
	routedDevs := buildChaos(routed, 200, 5)
	if err := routed.UseTransport(callerTransport{cc: &cc}); err != nil {
		t.Fatal(err)
	}
	routed.RunUntil(nil, 0, 10_000)

	chaosEqual(t, "caller-routed vs direct", directDevs, routedDevs)
	if direct.ResolvedRounds() != routed.ResolvedRounds() {
		t.Fatalf("resolved %d vs %d rounds", direct.ResolvedRounds(), routed.ResolvedRounds())
	}
	totalWakes := int64(0)
	for _, d := range routedDevs {
		totalWakes += int64(len(d.wakes))
	}
	if cc.wakes.Load() != totalWakes {
		t.Fatalf("caller saw %d wakes, devices recorded %d", cc.wakes.Load(), totalWakes)
	}
	totalObs := int64(0)
	for _, d := range routedDevs {
		totalObs += int64(len(d.obs))
	}
	if cc.delivers.Load() != totalObs {
		t.Fatalf("caller saw %d delivers, devices recorded %d", cc.delivers.Load(), totalObs)
	}
}

// protocolDriver decorates the default driver and asserts the clock's
// call protocol: Begin, then Collect, then Deliver, exactly once per
// round, with strictly increasing round numbers.
type protocolDriver struct {
	t     *testing.T
	inner RoundDriver
	last  uint64
	stage int // 0 = expect Begin, 1 = expect Collect, 2 = expect Deliver
}

func (p *protocolDriver) Begin(r uint64, wakes []int32) {
	if p.stage != 0 {
		p.t.Fatalf("Begin(%d) at stage %d", r, p.stage)
	}
	if p.last != 0 && r <= p.last {
		p.t.Fatalf("round %d not after %d", r, p.last)
	}
	p.last = r
	p.stage = 1
	p.inner.Begin(r, wakes)
}

func (p *protocolDriver) Collect(r uint64) []radio.Tx {
	if p.stage != 1 || r != p.last {
		p.t.Fatalf("Collect(%d) at stage %d (last %d)", r, p.stage, p.last)
	}
	p.stage = 2
	return p.inner.Collect(r)
}

func (p *protocolDriver) Deliver(r uint64, hook ObsHook) {
	if p.stage != 2 || r != p.last {
		p.t.Fatalf("Deliver(%d) at stage %d (last %d)", r, p.stage, p.last)
	}
	p.stage = 0
	p.inner.Deliver(r, hook)
}

// TestCustomDriverProtocol runs the chaos workload through a decorating
// RoundDriver installed with UseDriver, asserting the Begin/Collect/
// Deliver contract and unchanged results.
func TestCustomDriverProtocol(t *testing.T) {
	mk := func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} }

	direct := NewEngine(mk())
	directDevs := buildChaos(direct, 150, 9)
	direct.RunUntil(nil, 0, 8_000)

	e := NewEngine(mk())
	devs := buildChaos(e, 150, 9)
	e.UseDriver(&protocolDriver{t: t, inner: NewResolverDriver(e, nil)})
	e.RunUntil(nil, 0, 8_000)

	chaosEqual(t, "decorated driver vs direct", directDevs, devs)
}

// obsEvent is one ObsHook invocation.
type obsEvent struct {
	r   uint64
	dev int
	obs radio.Obs
}

// TestObsHookDeterministicOrder pins the OnDeliver contract: the hook
// fires once per listener observation, in listener wake order, with the
// exact observation the device received — identically across every
// delivery path and worker count.
func TestObsHookDeterministicOrder(t *testing.T) {
	mk := func() radio.Medium {
		m := radio.NewFriisMedium(2.5, 33)
		m.LossProb = 0.3
		return m
	}
	run := func(flat, linear bool, workers int) ([]obsEvent, []*chaosDevice) {
		e := NewEngine(mk())
		e.flatDelivery = flat
		e.DisableIndex = linear
		e.Workers = workers
		var events []obsEvent
		e.OnDeliver = func(r uint64, dev int, obs radio.Obs) {
			events = append(events, obsEvent{r: r, dev: dev, obs: obs})
		}
		devs := buildChaos(e, 400, 21)
		e.RunUntil(nil, 0, 500)
		return events, devs
	}

	refEvents, refDevs := run(false, false, 0)
	if len(refEvents) == 0 {
		t.Fatal("no observations hooked")
	}
	total := 0
	for _, d := range refDevs {
		total += len(d.obs)
	}
	if len(refEvents) != total {
		t.Fatalf("hook fired %d times, devices observed %d", len(refEvents), total)
	}
	// Each event's obs must be what the listener actually recorded.
	seen := make(map[int]int)
	for _, ev := range refEvents {
		d := refDevs[ev.dev]
		if d.obs[seen[ev.dev]] != ev.obs {
			t.Fatalf("dev %d obs #%d: hook %+v, device %+v", ev.dev, seen[ev.dev], ev.obs, d.obs[seen[ev.dev]])
		}
		seen[ev.dev]++
	}
	for _, cfg := range []struct {
		flat, linear bool
		workers      int
	}{
		{flat: true},
		{linear: true},
		{workers: 4},
		{flat: true, workers: 4},
	} {
		events, _ := run(cfg.flat, cfg.linear, cfg.workers)
		if len(events) != len(refEvents) {
			t.Fatalf("%+v: %d events vs %d", cfg, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Fatalf("%+v: event %d = %+v, want %+v", cfg, i, events[i], refEvents[i])
			}
		}
	}
}

// failingTransport always fails to build a driver.
type failingTransport struct{}

func (failingTransport) Driver(*Engine) (RoundDriver, error) {
	return nil, errors.New("boom")
}

func TestUseTransportErrorLeavesDefault(t *testing.T) {
	e := newTestEngine()
	if err := e.UseTransport(failingTransport{}); err == nil {
		t.Fatal("expected error")
	}
	a := newScripted(0, geom.Point{})
	a.plan[1] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 1)
	e.RunUntil(nil, 0, 10)
	if len(a.wakes) != 1 {
		t.Fatalf("engine unusable after failed UseTransport: %d wakes", len(a.wakes))
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on default driver: %v", err)
	}
}

// closableDriver records Close calls.
type closableDriver struct {
	RoundDriver
	closed int
}

func (c *closableDriver) Close() error {
	c.closed++
	return nil
}

func TestCloseForwardsToDriver(t *testing.T) {
	e := newTestEngine()
	cd := &closableDriver{RoundDriver: NewResolverDriver(e, nil)}
	e.UseDriver(cd)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if cd.closed != 1 {
		t.Fatalf("driver closed %d times, want 1", cd.closed)
	}
}

// fanOutProbe decorates the default resolver and records which
// work-descriptor jobs ran a sweep large enough to fan out across
// workers, so a test can prove it reached every job's concurrent
// branch rather than assume it from fleet sizes.
type fanOutProbe struct {
	*resolver
	fanned map[job]bool
}

func (p *fanOutProbe) Begin(r uint64, wakes []int32) {
	p.resolver.Begin(r, wakes)
	p.note()
}

func (p *fanOutProbe) Deliver(r uint64, hook ObsHook) {
	p.resolver.Deliver(r, hook)
	if len(p.listenIxs) > 0 {
		p.note()
	}
}

// note mirrors the unit counts the resolver hands parallelDo for the
// job the descriptor last ran.
func (p *fanOutProbe) note() {
	v := p.resolver
	n, per := 0, minPerWorker
	switch v.w.job {
	case jobWake, jobCallerWake:
		n = len(v.w.wakes)
	case jobChunk:
		n, per = (len(v.w.wakes)+wakeChunk-1)/wakeChunk, 1
	case jobObserve, jobObserveSet:
		n = len(v.listenIxs)
	case jobShard:
		n, per = len(v.shardEnd), 1
	}
	if fanWorkers(v.e.Workers, n, per) > 1 {
		p.fanned[v.w.job] = true
	}
}

// TestFanOutMatchesSequential drives every work-descriptor job through
// its fan-out branch (the probe asserts each one really fanned out)
// and requires the per-listener observation stream, every device's
// wakes and observations, and the resolved-round count to equal the
// Workers=1 run. Under -race it is the concurrency check of the shared
// descriptor and scratch.
func TestFanOutMatchesSequential(t *testing.T) {
	friis := func() radio.Medium {
		m := radio.NewFriisMedium(2.5, 33)
		m.LossProb = 0.3
		return m
	}
	type outcome struct {
		events   []obsEvent
		resolved uint64
		chaos    []*chaosDevice
		fleet    *blockFleet
	}
	cases := []struct {
		label string
		jobs  []job
		setup func(e *Engine)
		block bool // block fleet instead of chaos devices
	}{
		{label: "cells", jobs: []job{jobWake, jobShard}},
		{label: "caller", jobs: []job{jobCallerWake, jobShard}, setup: func(e *Engine) {
			var cc *countingCaller
			if err := e.UseTransport(callerTransport{cc: &cc}); err != nil {
				t.Fatal(err)
			}
		}},
		{label: "linear", jobs: []job{jobObserve}, setup: func(e *Engine) { e.DisableIndex = true }},
		{label: "flat", jobs: []job{jobObserveSet}, setup: func(e *Engine) { e.flatDelivery = true }},
		{label: "block", jobs: []job{jobChunk, jobShard}, block: true},
	}
	for _, c := range cases {
		run := func(workers int) (outcome, map[job]bool) {
			var out outcome
			e := NewEngine(friis())
			e.Workers = workers
			e.OnDeliver = func(r uint64, dev int, obs radio.Obs) {
				out.events = append(out.events, obsEvent{r: r, dev: dev, obs: obs})
			}
			if c.block {
				const n = 1200
				g := &blockFleet{pos: make([]geom.Point, n), log: make([][]radio.Obs, n)}
				ds := make([]blockFleetDev, n)
				for i := range ds {
					g.pos[i] = geom.Point{X: float64(i % 35), Y: float64(i / 35)}
					ds[i] = blockFleetDev{g: g, id: int32(i)}
					e.Add(&ds[i], 1)
				}
				out.fleet = g
			} else {
				out.chaos = buildChaos(e, 2000, 17)
			}
			if c.setup != nil {
				c.setup(e)
			}
			if e.drv == nil {
				e.drv = NewResolverDriver(e, nil)
			}
			probe := &fanOutProbe{resolver: e.drv.(*resolver), fanned: map[job]bool{}}
			e.UseDriver(probe)
			e.RunUntil(nil, 0, 300)
			out.resolved = e.ResolvedRounds()
			return out, probe.fanned
		}
		seq, _ := run(1)
		par, fanned := run(4)
		for _, j := range c.jobs {
			if !fanned[j] {
				t.Fatalf("%s: job %d never fanned out (fanned: %v)", c.label, j, fanned)
			}
		}
		if len(seq.events) == 0 || !slices.Equal(seq.events, par.events) {
			t.Fatalf("%s: observation stream differs across worker counts (%d vs %d events)", c.label, len(seq.events), len(par.events))
		}
		if seq.resolved != par.resolved {
			t.Fatalf("%s: resolved %d vs %d rounds", c.label, seq.resolved, par.resolved)
		}
		if c.block {
			for i := range seq.fleet.log {
				if !slices.Equal(seq.fleet.log[i], par.fleet.log[i]) {
					t.Fatalf("%s: device %d observations differ across worker counts", c.label, i)
				}
			}
		} else {
			chaosEqual(t, c.label+" workers 4 vs 1", seq.chaos, par.chaos)
		}
	}
}
