package protocols_test

import (
	"testing"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/radio"
	"authradio/internal/sim"
	"authradio/internal/topo"
)

// forwardCaller routes a resolver's device callbacks through the
// Caller seam instead of the in-process direct path.
type forwardCaller struct{ e *sim.Engine }

func (c forwardCaller) Wake(ix int32, r uint64) sim.Step { return c.e.DeviceAt(int(ix)).Wake(r) }
func (c forwardCaller) Deliver(ix int32, r uint64, obs radio.Obs) {
	c.e.DeviceAt(int(ix)).Deliver(r, obs)
}

type forwardTransport struct{}

func (forwardTransport) Driver(e *sim.Engine) (sim.RoundDriver, error) {
	return sim.NewResolverDriver(e, forwardCaller{e: e}), nil
}

// TestProtocolRoundSteadyStateAllocs pins the per-device round path of
// the golden workloads: once a 7×7 NeighborWatchRB or MultiPathRB world
// is warm, its protocol rounds (the six-sub-round 2Bit exchange, phase
// A wakes, phase B delivery) allocate next to nothing — no per-round
// closure, no per-slot role machine. What remains is protocol state
// that grows with the message (MultiPathRB frames and evidence). The
// window must fall mid-broadcast, or it would measure an idle engine.
func TestProtocolRoundSteadyStateAllocs(t *testing.T) {
	const window = 2000
	for _, proto := range []struct {
		name   string
		budget float64 // allocations per round
	}{
		{"NeighborWatchRB", 0.25},
		{"MultiPathRB", 1},
	} {
		for _, run := range []struct {
			label string
			opts  []core.Option
		}{
			{"workers=1", []core.Option{core.WithWorkers(1)}},
			{"workers=4", []core.Option{core.WithWorkers(4)}},
			{"caller", []core.Option{core.WithTransport(forwardTransport{})}},
		} {
			w, err := core.Build(core.Config{
				Deploy:       topo.Grid(7, 7, 2),
				ProtocolName: proto.name,
				Msg:          bitcodec.NewMessage(0xA5A5A5A5A5A5A5A5, 64),
				SourceID:     -1,
				T:            1,
			}, run.opts...)
			if err != nil {
				t.Fatal(err)
			}
			e := w.Eng
			e.RunUntil(nil, 0, window) // warm up scratch, wheel and protocol state
			before := e.ResolvedRounds()
			allocs := testing.AllocsPerRun(2, func() { e.RunUntil(nil, 0, e.Round()+window) })
			if e.ResolvedRounds() == before || w.HonestDone() {
				t.Fatalf("%s/%s: window did not fall mid-broadcast (%d rounds resolved, done=%v)",
					proto.name, run.label, e.ResolvedRounds()-before, w.HonestDone())
			}
			if perRound := allocs / window; perRound > proto.budget {
				t.Errorf("%s/%s: %.3f allocations per round, want <= %v", proto.name, run.label, perRound, proto.budget)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
