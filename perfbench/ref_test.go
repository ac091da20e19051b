package main

import (
	"math"
	"testing"
	"time"
)

// A step of two kernel calls costs about two reference units, and the
// operation's span carries the units as CPU ÷ Ref with the meter's own
// calls taken out.
func TestRefMeterCountsStepsInKernelCalls(t *testing.T) {
	const steps = 5
	var m refMeter
	outer := startSpan()
	m.start()
	for i := 0; i < steps; i++ {
		refKernel()
		refKernel()
		m.step()
	}
	total := outer.end()
	s := m.span(total)
	if m.units < steps || m.units > 4*steps {
		t.Errorf("%d steps of two kernel calls measured %.2f units, want about %d", steps, m.units, 2*steps)
	}
	if got := float64(s.CPU) / float64(s.Ref); math.Abs(got-m.units) > 1e-6*m.units {
		t.Errorf("span CPU/Ref = %.4f, meter units %.4f", got, m.units)
	}
	if s.CPU <= 0 || s.CPU >= total.CPU || s.Wall >= total.Wall {
		t.Errorf("meter's own calls not taken out: op %v of %v CPU, %v of %v wall", s.CPU, total.CPU, s.Wall, total.Wall)
	}
}

// op_ref is the median of the operations' own ratios, not a ratio of
// medians.
func TestSetOpsReportsMedianRatio(t *testing.T) {
	e := &env{metrics: map[string]metric{}, notes: map[string]float64{}}
	ms := time.Millisecond
	e.setOps([]span{
		{Wall: 10 * ms, CPU: 10 * ms, Ref: 2 * ms},  // 5
		{Wall: 30 * ms, CPU: 30 * ms, Ref: 10 * ms}, // 3
		{Wall: 20 * ms, CPU: 20 * ms, Ref: 5 * ms},  // 4
	})
	if got := e.metrics["op_ref"]; got.Value != 4 || got.Unit != "ref" {
		t.Errorf("op_ref = %+v, want 4 ref", got)
	}
	if got := e.notes["op_cpu_ms"]; got != 20 {
		t.Errorf("op_cpu_ms note = %v, want 20", got)
	}
}
