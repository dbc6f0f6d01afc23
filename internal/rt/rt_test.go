package rt_test

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/progs"
	"repro/internal/rt"
)

func TestNopMonitorPlainExecution(t *testing.T) {
	p := progs.Fig2()
	if w := p.Execute(rt.NopMonitor{}, []float64{0}); w != 0 {
		t.Errorf("nop monitor w = %v, want 0", w)
	}
}

func TestCtxCmpEvaluates(t *testing.T) {
	var got []bool
	p := &rt.Program{
		Name: "cmp",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			got = append(got,
				ctx.Cmp(0, fp.LT, in[0], 1),
				ctx.Cmp(1, fp.GE, in[0], 0),
			)
		},
	}
	p.Execute(rt.NopMonitor{}, []float64{0.5})
	if !got[0] || !got[1] {
		t.Errorf("Cmp results = %v, want both true", got)
	}
}

// stopAfter stops the run at its nth FP op and then latches, as the
// rt.Monitor contract asks: it ignores every later observation until
// Reset. late counts the FP ops the port ran after the stop.
type stopAfter struct {
	n, seen, late int
}

func (m *stopAfter) Reset()                                 { m.seen, m.late = 0, 0 }
func (m *stopAfter) Branch(int, fp.CmpOp, float64, float64) {}
func (m *stopAfter) Value() float64                         { return float64(m.seen) }
func (m *stopAfter) FPOp(site int, v float64) bool {
	if m.seen >= m.n {
		m.late++
		return true
	}
	m.seen++
	return m.seen >= m.n
}

func TestEarlyStopLatches(t *testing.T) {
	p := progs.Fig2()
	m := &stopAfter{n: 1}
	// Input 0 executes ops inc, square, dec. The native port runs on
	// after the stop at inc; the latched monitor keeps w at the stop.
	if w := p.Execute(m, []float64{0}); w != 1 {
		t.Errorf("w = %v, want 1: fixed at the stop after the first op", w)
	}
	if m.late != 2 {
		t.Errorf("the port ran %d ops after the stop, want 2", m.late)
	}
}

func TestEarlyStopDoesNotSwallowRealPanics(t *testing.T) {
	p := &rt.Program{
		Name: "panics",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			panic("real bug")
		},
	}
	defer func() {
		if r := recover(); r != "real bug" {
			t.Errorf("recovered %v, want the original panic", r)
		}
	}()
	p.Execute(rt.NopMonitor{}, []float64{0})
	t.Fatal("expected panic to propagate")
}

func TestWeakDistanceClosure(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{})
	if got := w([]float64{1.0}); got != 0 {
		t.Errorf("W(1) = %v, want 0 (x = 1 is a boundary value)", got)
	}
	if got := w([]float64{10.0}); got <= 0 {
		t.Errorf("W(10) = %v, want > 0", got)
	}
}

// TestWeakDistanceRepeatedCalls checks that a stateless port's weak
// distance resets its monitor on every call, so each call's w is fixed
// at that call's stop, and allocates nothing per call.
func TestWeakDistanceRepeatedCalls(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&stopAfter{n: 2})
	x := []float64{0}
	for i := 0; i < 3; i++ {
		if got := w(x); got != 2 {
			t.Fatalf("call %d: w = %v, want 2: fixed at the stop after 2 ops", i, got)
		}
	}
	if a := testing.AllocsPerRun(100, func() { w(x) }); a != 0 {
		t.Errorf("%v allocations per call, want 0", a)
	}
}

func TestFig2Semantics(t *testing.T) {
	// Concrete semantics cross-check of the port: input 0 takes both
	// branches (0 <= 1, then y = 1 <= 4); input 3 takes neither
	// (3 > 1, y = 9 > 4).
	p := progs.Fig2()
	var trace []bool
	mon := &branchRecorder{out: &trace}
	p.Execute(mon, []float64{0})
	if len(trace) != 2 || !trace[0] || !trace[1] {
		t.Errorf("Fig2(0) branch outcomes = %v, want [true true]", trace)
	}
	trace = nil
	p.Execute(mon, []float64{3})
	if len(trace) != 2 || trace[0] || trace[1] {
		t.Errorf("Fig2(3) branch outcomes = %v, want [false false]", trace)
	}
}

type branchRecorder struct {
	out *[]bool
}

func (m *branchRecorder) Reset() {}
func (m *branchRecorder) Branch(site int, op fp.CmpOp, a, b float64) {
	*m.out = append(*m.out, op.Eval(a, b))
}
func (m *branchRecorder) FPOp(int, float64) bool { return false }
func (m *branchRecorder) Value() float64         { return 0 }

func TestFig1Motivating(t *testing.T) {
	// The paper's §1 example: under round-to-nearest,
	// x = 0.9999999999999999 enters the branch and violates the
	// assertion (x + 1 == 2).
	x := 0.9999999999999999
	r := progs.Fig1aCheck(x)
	if !r.Entered || !r.Violated {
		t.Errorf("Fig1a(%v) = %+v, want entered and violated", x, r)
	}
	// An ordinary input does not violate it.
	r = progs.Fig1aCheck(0.5)
	if !r.Entered || r.Violated {
		t.Errorf("Fig1a(0.5) = %+v, want entered and not violated", r)
	}
	if math.Nextafter(1.0, 0) != x {
		t.Errorf("sanity: 0.9999999999999999 should be the predecessor of 1")
	}
}
