// Package rt is the observation runtime for natively ported benchmark
// programs (glibc sin, the GSL special functions). It plays the role of
// the paper's Clang/LLVM instrumentation pass (§5.3 "Reduction Kernel"):
// every floating-point operation and every conditional branch in a port
// flows through a Ctx, which forwards the observation to a pluggable
// Monitor — the weak-distance state machine.
//
// A port is written once with explicit observation points; which analysis
// runs (boundary value, path reachability, overflow detection, coverage)
// is decided by the Monitor plugged in at run time, exactly as the
// paper's Analysis Designer layer chooses w_init and update_w.
package rt

import (
	"sync"

	"repro/internal/fp"
)

// Monitor receives the runtime observations of one program execution and
// accumulates the weak-distance value w. Implementations live in
// internal/instrument.
type Monitor interface {
	// Reset prepares the monitor for a fresh execution.
	Reset()
	// Branch observes a conditional `a op b` at the given site just
	// before it executes.
	Branch(site int, op fp.CmpOp, a, b float64)
	// FPOp observes the result of the floating-point operation at the
	// given site. Returning stop=true aborts the execution immediately
	// (Algorithm 3's injected `if (w == 0) return;`).
	FPOp(site int, v float64) (stop bool)
	// Value returns the weak distance w accumulated by the execution.
	Value() float64
}

// NopMonitor ignores all observations and reports w = 0. It is used to
// run a port uninstrumented (plain concrete execution).
type NopMonitor struct{}

// Reset implements Monitor.
func (NopMonitor) Reset() {}

// Branch implements Monitor.
func (NopMonitor) Branch(int, fp.CmpOp, float64, float64) {}

// FPOp implements Monitor.
func (NopMonitor) FPOp(int, float64) bool { return false }

// Value implements Monitor.
func (NopMonitor) Value() float64 { return 0 }

// OpInfo describes one floating-point operation site of a program: an
// entry of the paper's instruction set L̄ (§4.4).
type OpInfo struct {
	ID    int    // dense site identifier, unique within the program
	Label string // source-level description, e.g. "mu = 4.0 * nu*nu (first *)"
}

// BranchInfo describes one conditional branch site.
type BranchInfo struct {
	ID    int      // dense site identifier, unique within the program
	Label string   // source-level description, e.g. "k < 0x3e500000"
	Op    fp.CmpOp // comparison operator at the site
}

// Program is an instrumentable native port: a fixed input arity, static
// inventories of its FP-operation and branch sites, and a Run function
// that executes the port under a Ctx.
type Program struct {
	Name     string
	Dim      int // number of float64 inputs (dom(Prog) = F^Dim)
	Ops      []OpInfo
	Branches []BranchInfo
	Run      func(ctx *Ctx, x []float64)

	// NewInstance, when non-nil, returns an independent copy of the
	// program that is safe to Execute concurrently with the original.
	// Native ports are pure functions of (ctx, x) and leave it nil;
	// interpreter-backed programs carry per-execution mutable state
	// (step budgets, failure logs) and set it so the parallel
	// multi-start engine can give every worker its own instance.
	NewInstance func() *Program

	// NoPanicStop declares that Run honors monitor early-stop requests
	// through ordinary control flow and never raises the stop panic
	// (true for the compiled flat-code engine). Execute then skips its
	// recover wrapper on the per-evaluation path.
	//
	// The panic stop stays for the native ports, which unwind through
	// it. A prototype that instead latched the stop and let a native
	// port run on unobserved made BenchmarkWeakDistanceEval/airy/overflow
	// slower: 0.94–1.11 µs per evaluation became 1.27–1.48 µs (2-vCPU
	// linux/amd64 host). It leaves together with the native ports.
	NoPanicStop bool

	// RunBatch is unused: nothing in this module sets it, and every
	// evaluation goes through Run. It stays only because the benchmark
	// harness (perfbench/layers.go, a separate module) still wraps it
	// when non-nil; it goes once the harness stops reading it.
	RunBatch func(mons []Monitor, xs [][]float64, out []float64)

	// ctx is the reusable execution context of a stateful program.
	// Programs with NewInstance set carry per-execution mutable state,
	// so each instance is executed by one goroutine at a time and can
	// own its context outright — no pool round-trip per evaluation.
	ctx *Ctx
}

// Instance returns a program safe for concurrent execution alongside
// every other Instance result: the program itself when it is stateless,
// or a fresh independent copy otherwise.
func (p *Program) Instance() *Program {
	if p.NewInstance != nil {
		return p.NewInstance()
	}
	return p
}

// ctxPool recycles execution contexts across Execute calls. A Ctx is
// tiny, but the per-evaluation path must be allocation-free: analyses
// spend their entire budget calling Execute millions of times.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// Execute runs the program on x under the monitor and returns the
// accumulated weak distance. Early stops requested by the monitor are
// honored via panic-based unwinding confined to this call.
func (p *Program) Execute(m Monitor, x []float64) float64 {
	m.Reset()
	if p.NewInstance != nil {
		// Stateful program: single-goroutine by contract, owns its
		// context.
		if p.ctx == nil {
			p.ctx = new(Ctx)
		}
		p.ctx.mon = m
		if p.NoPanicStop {
			p.Run(p.ctx, x)
		} else {
			p.runProtected(p.ctx, x)
		}
		p.ctx.mon = nil
		return m.Value()
	}
	ctx := ctxPool.Get().(*Ctx)
	ctx.mon = m
	p.runProtected(ctx, x)
	ctx.mon = nil
	ctxPool.Put(ctx)
	return m.Value()
}

// runProtected confines the early-stop unwinding to one frame. (If Run
// panics with anything else, the context is deliberately not returned
// to the pool.)
func (p *Program) runProtected(ctx *Ctx, x []float64) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopExecution); !ok {
				panic(r)
			}
		}
	}()
	p.Run(ctx, x)
}

// WeakDistance returns the weak-distance objective W(x) induced by the
// monitor: exactly the paper's
//
//	double W(double x1, ..., xN) { w = w_init; Prog_w(x...); return w; }
//
// construction (Algorithm 2 step 1 / Algorithm 3 step 3).
func (p *Program) WeakDistance(m Monitor) func(x []float64) float64 {
	return func(x []float64) float64 {
		return p.Execute(m, x)
	}
}

// stopExecution is the sentinel panic used to abort a run when a monitor
// requests early termination.
type stopExecution struct{}

// Ctx is the execution context handed to a port's Run function.
type Ctx struct {
	mon Monitor
}

// NewCtx returns a context forwarding observations to m. Most callers
// should use Program.Execute, which also handles early-stop unwinding;
// NewCtx exists for direct execution (e.g. extracting a port's return
// value with a NopMonitor).
func NewCtx(m Monitor) *Ctx { return &Ctx{mon: m} }

// Monitor returns the monitor the context forwards to. Execution
// engines that dispatch observations themselves (internal/compile) use
// it to call the monitor directly instead of going through Op/Cmp.
func (c *Ctx) Monitor() Monitor { return c.mon }

// Op reports the result of the FP operation at the given site and returns
// it, so ports can wrap expressions inline:
//
//	mu := ctx.Op(1, ctx.Op(0, 4.0*nu)*nu)
func (c *Ctx) Op(site int, v float64) float64 {
	if c.mon.FPOp(site, v) {
		panic(stopExecution{})
	}
	return v
}

// Cmp observes and evaluates the branch condition `a op b` at the site.
func (c *Ctx) Cmp(site int, op fp.CmpOp, a, b float64) bool {
	c.mon.Branch(site, op, a, b)
	return op.Eval(a, b)
}
