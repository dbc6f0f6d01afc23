// Package fuzz is the differential-oracle harness of the testing
// stack: it feeds generated FPL programs (internal/fplgen) through the
// whole system — both execution engines, every registered MO backend,
// all registered analyses, the batch pipeline — and checks the paper's
// central soundness property at each layer:
//
//  1. Engine differential: the flat-code VM and the tree-walking
//     interpreter are bit-identical on results, monitor observation
//     traces, assertion failures, step-budget aborts, and monitor early
//     stops.
//  2. Backend differential: every opt.BackendByName backend either
//     converges to a replay-confirmed weak-distance zero or reports
//     not-found — never a false witness.
//  3. Finding replay: every finding reported by a registered analysis
//     is re-executed through rt and confirmed against the claimed
//     verdict (weak distances are sound witnesses — any input driven
//     to weak-distance zero is a real solution).
//
// The package also hosts the greedy program shrinker that minimizes
// failing programs into committable regression fixtures, and the
// campaign driver wiring generated corpora through internal/pipeline
// batches so fuzzing doubles as a worker-pool/cache stress test.
package fuzz

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rt"
)

// Violation is one oracle failure: the smoking gun of a divergence
// between two components that must agree.
type Violation struct {
	// Layer names the oracle that fired: "engine", "backend", "replay",
	// or "pipeline".
	Layer string `json:"layer"`
	// Program is the FPL source under test ("" for formula-only
	// violations).
	Program string `json:"program,omitempty"`
	// Detail describes the divergence.
	Detail string `json:"detail"`
	// Input is the triggering input, when one exists.
	Input []float64 `json:"input,omitempty"`
}

func (v Violation) String() string {
	s := v.Layer + ": " + v.Detail
	if v.Input != nil {
		s += fmt.Sprintf(" (input %v)", v.Input)
	}
	if v.Program != "" {
		s += "\n" + strings.TrimRight(v.Program, "\n")
	}
	return s
}

// EngineCheck configures CheckEngines.
type EngineCheck struct {
	// MaxSteps bounds each uninstrumented run (0 = the engines'
	// default). The fuzz targets lower it so adversarial recursion
	// stays cheap.
	MaxSteps int
	// BudgetSweep re-runs under every step budget 1..BudgetSweep and
	// requires identical aborts; 0 selects 32, negative disables.
	BudgetSweep int
	// EarlyStops re-runs with a monitor stopping after each of the
	// first N FP-op observations; 0 selects 8, negative disables.
	EarlyStops int
	// MaxViolations stops the check after this many violations; 0
	// selects 1 (first divergence wins — the program is already a
	// reproducer).
	MaxViolations int
	// TamperVM, when non-nil, perturbs the VM's uninstrumented result —
	// the injected-bug hook used to validate that the oracle and the
	// shrinker actually catch engine divergences. Production campaigns
	// leave it nil.
	TamperVM func(src string, r float64) float64
}

func (c EngineCheck) budgetSweep() int {
	if c.BudgetSweep == 0 {
		return 32
	}
	if c.BudgetSweep < 0 {
		return 0
	}
	return c.BudgetSweep
}

func (c EngineCheck) earlyStops() int {
	if c.EarlyStops == 0 {
		return 8
	}
	if c.EarlyStops < 0 {
		return 0
	}
	return c.EarlyStops
}

func (c EngineCheck) maxViolations() int {
	if c.MaxViolations > 0 {
		return c.MaxViolations
	}
	return 1
}

// obs is one recorded monitor observation.
type obs struct {
	branch bool
	site   int
	pred   fp.CmpOp
	a, b   uint64 // operand/result bits
}

// tracer records every observation; it can optionally request an early
// stop after a fixed number of FP-op observations.
type tracer struct {
	recs    []obs
	ops     int
	stopAt  int // stop when ops reaches stopAt (0 = never)
	stopped bool
}

func (t *tracer) Reset() {
	t.recs = t.recs[:0]
	t.ops = 0
	t.stopped = false
}

func (t *tracer) Branch(site int, op fp.CmpOp, a, b float64) {
	t.recs = append(t.recs, obs{branch: true, site: site, pred: op,
		a: math.Float64bits(a), b: math.Float64bits(b)})
}

func (t *tracer) FPOp(site int, v float64) bool {
	t.recs = append(t.recs, obs{site: site, a: math.Float64bits(v)})
	t.ops++
	if t.stopAt > 0 && t.ops >= t.stopAt {
		t.stopped = true
		return true
	}
	return false
}

func (t *tracer) Value() float64 { return float64(len(t.recs)) }

func sameTrace(a, b []obs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// CheckEngines runs the full engine-differential battery — oracle
// layer 1 — for one entry function over a set of inputs: uninstrumented
// result bits, assertion failure logs, full observation traces,
// step-budget aborts at every budget, and monitor early stops must all
// be bit-identical between the tree-walking reference and the flat-code
// VM. A compile failure is not a violation (the input was not a valid
// program); the caller decides whether that is expected.
func CheckEngines(src, fn string, inputs [][]float64, c EngineCheck) []Violation {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil
	}
	if mod.Func(fn) == nil {
		return nil
	}
	tree := interp.New(mod)
	tree.Engine = interp.EngineTree
	tree.MaxSteps = c.MaxSteps
	vm := interp.New(mod)
	vm.Engine = interp.EngineVM
	vm.MaxSteps = c.MaxSteps

	var out []Violation
	report := func(detail string, x []float64) bool {
		out = append(out, Violation{
			Layer:   "engine",
			Program: src,
			Detail:  detail,
			Input:   append([]float64(nil), x...),
		})
		return len(out) >= c.maxViolations()
	}

	pt, err := tree.Program(fn)
	if err != nil {
		return nil
	}
	pv, err := vm.Program(fn)
	if err != nil {
		// The tree engine accepted the function but the VM did not:
		// that asymmetry is itself a divergence.
		return []Violation{{Layer: "engine", Program: src,
			Detail: "vm rejects a function the tree engine accepts: " + err.Error()}}
	}

	for _, x := range inputs {
		if len(x) != mod.Func(fn).NParams {
			continue
		}
		// Each input starts from clean failure logs: a divergence
		// `continue` on the previous input must not leak its
		// assert-failure entries into this one's comparison.
		tree.ClearFailures()
		vm.ClearFailures()

		// Result bits (uninstrumented run).
		rt1, err1 := tree.Run(fn, x)
		rt2, err2 := vm.Run(fn, x)
		if c.TamperVM != nil {
			rt2 = c.TamperVM(src, rt2)
		}
		if (err1 == nil) != (err2 == nil) {
			if report(fmt.Sprintf("%s(%v): run errors diverge: tree=%v vm=%v", fn, x, err1, err2), x) {
				return out
			}
			continue
		}
		if !sameBits(rt1, rt2) {
			if report(fmt.Sprintf("%s(%v): results diverge: tree=%v (%#x) vm=%v (%#x)",
				fn, x, rt1, math.Float64bits(rt1), rt2, math.Float64bits(rt2)), x) {
				return out
			}
			continue
		}

		// Assertion failure logs.
		if len(tree.Failures) != len(vm.Failures) {
			if report(fmt.Sprintf("%s(%v): tree recorded %d assert failures, vm %d",
				fn, x, len(tree.Failures), len(vm.Failures)), x) {
				return out
			}
		} else {
			for i := range tree.Failures {
				tf, vf := tree.Failures[i], vm.Failures[i]
				if tf.Pos != vf.Pos || tf.Label != vf.Label || fmt.Sprint(tf.Input) != fmt.Sprint(vf.Input) {
					if report(fmt.Sprintf("%s(%v): assert failure %d differs: tree=%v vm=%v",
						fn, x, i, tf, vf), x) {
						return out
					}
					break
				}
			}
		}
		tree.ClearFailures()
		vm.ClearFailures()

		// Full observation traces.
		mt, mv := &tracer{}, &tracer{}
		wt := pt.Execute(mt, x)
		wv := pv.Execute(mv, x)
		if wt != wv || !sameTrace(mt.recs, mv.recs) {
			if report(fmt.Sprintf("%s(%v): trace diverges (tree %d obs w=%v, vm %d obs w=%v)",
				fn, x, len(mt.recs), wt, len(mv.recs), wv), x) {
				return out
			}
			continue
		}
		nOps := mt.ops

		// Step-budget aborts: every small budget must abort at the same
		// point with the same observation prefix and the same NaN
		// marker.
		for budget := 1; budget <= c.budgetSweep(); budget++ {
			tree.MaxSteps, vm.MaxSteps = budget, budget
			r1, _ := tree.Run(fn, x)
			r2, _ := vm.Run(fn, x)
			if !sameBits(r1, r2) {
				if report(fmt.Sprintf("%s(%v) budget=%d: results diverge: tree=%v vm=%v",
					fn, x, budget, r1, r2), x) {
					return out
				}
				break
			}
			mt.Reset()
			mv.Reset()
			pt.Execute(mt, x)
			pv.Execute(mv, x)
			if !sameTrace(mt.recs, mv.recs) {
				if report(fmt.Sprintf("%s(%v) budget=%d: abort trace diverges (tree %d obs, vm %d obs)",
					fn, x, budget, len(mt.recs), len(mv.recs)), x) {
					return out
				}
				break
			}
		}
		tree.MaxSteps, vm.MaxSteps = c.MaxSteps, c.MaxSteps
		tree.ClearFailures()
		vm.ClearFailures()

		// Monitor early stops after each of the first FP-op
		// observations: both engines must deliver the identical
		// truncated trace.
		maxStop := nOps
		if maxStop > c.earlyStops() {
			maxStop = c.earlyStops()
		}
		for stop := 1; stop <= maxStop; stop++ {
			st, sv := &tracer{stopAt: stop}, &tracer{stopAt: stop}
			w1 := pt.Execute(st, x)
			w2 := pv.Execute(sv, x)
			if w1 != w2 || st.stopped != sv.stopped || !sameTrace(st.recs, sv.recs) {
				if report(fmt.Sprintf("%s(%v) stopAt=%d: early-stop diverges", fn, x, stop), x) {
					return out
				}
				break
			}
		}
		tree.ClearFailures()
		vm.ClearFailures()
	}

	return out
}

var _ rt.Monitor = (*tracer)(nil)
