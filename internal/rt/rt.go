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
//
// Algorithm 3's injected `if (w == 0) return;` is a Monitor.FPOp that
// returns true. The FPL engines (internal/compile, internal/interp)
// return at once; a native port runs to completion, since every loop in
// a port is bounded, and the monitor latches: it ignores every later
// observation until Reset, so w keeps the value of the operation that
// stopped the run. No execution unwinds by panic.
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
	// given site. Returning stop=true is Algorithm 3's injected
	// `if (w == 0) return;`: an FPL engine returns at once, while a
	// native port runs on to its end. A monitor that has returned true
	// must therefore ignore every later FPOp and Branch until Reset.
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
// accumulated weak distance.
func (p *Program) Execute(m Monitor, x []float64) float64 {
	m.Reset()
	if p.NewInstance != nil {
		// Stateful program: single-goroutine by contract, owns its
		// context.
		if p.ctx == nil {
			p.ctx = new(Ctx)
		}
		p.ctx.mon = m
		p.Run(p.ctx, x)
		p.ctx.mon = nil
		return m.Value()
	}
	ctx := ctxPool.Get().(*Ctx)
	ctx.mon = m
	p.Run(ctx, x)
	ctx.mon = nil
	ctxPool.Put(ctx)
	return m.Value()
}

// WeakDistance returns the weak-distance objective W(x) induced by the
// monitor: exactly the paper's
//
//	double W(double x1, ..., xN) { w = w_init; Prog_w(x...); return w; }
//
// construction (Algorithm 2 step 1 / Algorithm 3 step 3).
//
// Like the monitor it binds, the objective serves one goroutine at a
// time, so it owns one context instead of drawing one from the pool on
// every evaluation.
func (p *Program) WeakDistance(m Monitor) func(x []float64) float64 {
	ctx := &Ctx{mon: m}
	return func(x []float64) float64 {
		m.Reset()
		p.Run(ctx, x)
		return m.Value()
	}
}

// Ctx is the execution context handed to a port's Run function.
type Ctx struct {
	mon Monitor
}

// NewCtx returns a context forwarding observations to m. Most callers
// should use Program.Execute, which also resets the monitor and reads
// w; NewCtx exists for direct execution (e.g. extracting a port's
// return value with a NopMonitor).
func NewCtx(m Monitor) *Ctx { return &Ctx{mon: m} }

// Monitor returns the monitor the context forwards to. The FPL engines
// (internal/compile, internal/interp) call it directly instead of going
// through Op/Cmp, so they can return when FPOp asks them to stop.
func (c *Ctx) Monitor() Monitor { return c.mon }

// Op reports the result of the FP operation at the given site and returns
// it, so ports can wrap expressions inline:
//
//	mu := ctx.Op(1, ctx.Op(0, 4.0*nu)*nu)
//
// A stop request is not acted on here: the port runs on, and the
// latched monitor ignores the rest of the run.
func (c *Ctx) Op(site int, v float64) float64 {
	c.mon.FPOp(site, v)
	return v
}

// Cmp observes and evaluates the branch condition `a op b` at the site.
func (c *Ctx) Cmp(site int, op fp.CmpOp, a, b float64) bool {
	c.mon.Branch(site, op, a, b)
	return op.Eval(a, b)
}
