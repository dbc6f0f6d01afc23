// Package interp executes IR modules under instrumentation. It is the
// dynamic half of the Reduction Kernel (§5.3): given a compiled FPL
// program, it produces an rt.Program whose every floating-point
// operation and branch condition is observed by a pluggable monitor —
// the same interface the native GSL/libm ports use, so all weak-distance
// constructions work identically over both substrates.
//
// Two execution engines back the returned programs:
//
//   - EngineVM (the default): internal/compile's flat-code register VM.
//     The module is compiled once into linear code with precomputed
//     jump offsets, resolved call targets and builtin function
//     pointers, and executed over a reusable frame arena — the
//     allocation-free hot path every analysis's evaluation budget is
//     spent on.
//   - EngineTree: the original tree-walking interpreter, kept as the
//     reference semantics and differential-testing oracle.
//
// The engines are observationally identical: same results, same monitor
// observation sequences, same step-budget aborts (enforced by the
// differential tests in internal/compile).
package interp

import (
	"fmt"
	"math"

	"repro/internal/builtins"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/rt"
)

// DefaultMaxSteps bounds interpretation so that non-terminating loops
// (reachable under adversarial optimizer inputs) cannot hang an
// analysis. A run that exceeds the bound is abandoned; the monitor
// reports the weak distance accumulated so far.
const DefaultMaxSteps = compile.DefaultMaxSteps

// AssertFailure records a violated assert statement during a run.
type AssertFailure = compile.AssertFailure

// Engine selects the execution engine backing an Interp.
type Engine uint8

const (
	// EngineVM executes compiled flat code (internal/compile): the
	// fast, allocation-free default.
	EngineVM Engine = iota
	// EngineTree walks the block-structured IR directly: the reference
	// implementation and differential-testing oracle.
	EngineTree
)

// String names the engine in test and benchmark output.
func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "vm"
}

// DefaultEngine is the engine New installs on fresh interpreters. The
// tree-walker is a test oracle: tests and the differential harnesses
// select it per Interp.
const DefaultEngine = EngineVM

// Interp drives interpretation of one module.
type Interp struct {
	// Mod is the module to execute.
	Mod *ir.Module
	// MaxSteps bounds instructions per execution; zero selects
	// DefaultMaxSteps.
	MaxSteps int
	// Engine selects the execution engine. The zero value is EngineVM;
	// New installs DefaultEngine.
	Engine Engine

	// Failures collects assertion violations across runs (reset by
	// ClearFailures). Useful for the Fig. 1 style analyses.
	Failures []AssertFailure

	compiled *compile.Module  // lazily compiled flat code, shared by forks
	vm       *compile.Machine // reusable machine for uninstrumented Run

	steps int
	input []float64
	cargs []float64 // tree-walker call-argument scratch
}

// New returns an interpreter for the module using DefaultEngine.
func New(m *ir.Module) *Interp { return &Interp{Mod: m, Engine: DefaultEngine} }

// ClearFailures discards recorded assertion failures.
func (it *Interp) ClearFailures() { it.Failures = nil }

// compiledModule compiles the module to flat code once, caching the
// result. Forks share the cache: compiled code is immutable.
func (it *Interp) compiledModule() (*compile.Module, error) {
	if it.compiled == nil {
		cm, err := compile.Compile(it.Mod)
		if err != nil {
			return nil, err
		}
		it.compiled = cm
	}
	return it.compiled, nil
}

// Program wraps the named function as an instrumentable rt.Program.
// The returned program shares the interpreter (and its failure log).
func (it *Interp) Program(fnName string) (*rt.Program, error) {
	fn := it.Mod.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("interp: no function %q in module", fnName)
	}
	var run func(ctx *rt.Ctx, x []float64)
	if it.Engine == EngineTree {
		run = func(ctx *rt.Ctx, x []float64) {
			it.run(ctx, fn, x)
		}
	} else {
		cm, err := it.compiledModule()
		if err != nil {
			return nil, err
		}
		cfn := cm.Func(fnName)
		vm := cm.NewMachine()
		vm.OnAssertFailure = func(f AssertFailure) {
			it.Failures = append(it.Failures, f)
		}
		run = func(ctx *rt.Ctx, x []float64) {
			// MaxSteps is read per run, matching the tree-walker's
			// late binding of the budget.
			vm.MaxSteps = it.MaxSteps
			vm.Run(ctx, cfn, x)
		}
	}
	return &rt.Program{
		Name:     fnName,
		Dim:      fn.NParams,
		Ops:      it.Mod.OpSites,
		Branches: it.Mod.BranchSites,
		Run:      run,
		// The VM unwinds monitor stops through ordinary returns; only
		// the tree-walker needs the panic-based protocol.
		NoPanicStop: it.Engine != EngineTree,
		// The module (and its compiled flat code) is immutable, but the
		// executing machinery is not (frame arena, step counter, failure
		// log), so a concurrent-safe instance wraps a fresh interpreter
		// over the same module. Failures recorded during parallel
		// searches land on the instance and are discarded with it.
		NewInstance: func() *rt.Program {
			fork := &Interp{
				Mod:      it.Mod,
				MaxSteps: it.MaxSteps,
				Engine:   it.Engine,
				compiled: it.compiled,
			}
			p, err := fork.Program(fnName)
			if err != nil {
				panic(err) // unreachable: fnName was just resolved above
			}
			return p
		},
	}, nil
}

// Run executes the named function uninstrumented and returns its result
// (0 for void functions, 1/0 for bool results, NaN when the step budget
// is exceeded).
func (it *Interp) Run(fnName string, x []float64) (float64, error) {
	fn := it.Mod.Func(fnName)
	if fn == nil {
		return 0, fmt.Errorf("interp: no function %q in module", fnName)
	}
	if it.Engine == EngineTree {
		return it.run(rt.NewCtx(rt.NopMonitor{}), fn, x), nil
	}
	cm, err := it.compiledModule()
	if err != nil {
		return 0, err
	}
	if it.vm == nil {
		it.vm = cm.NewMachine()
		it.vm.OnAssertFailure = func(f AssertFailure) {
			it.Failures = append(it.Failures, f)
		}
	}
	it.vm.MaxSteps = it.MaxSteps
	return it.vm.Run(rt.NewCtx(rt.NopMonitor{}), cm.Func(fnName), x), nil
}

// budgetExceeded is the internal control panic for step-limit aborts.
type budgetExceeded struct{}

// run executes fn on x under ctx with the tree-walking engine,
// returning its result (0 for void).
func (it *Interp) run(ctx *rt.Ctx, fn *ir.Func, x []float64) float64 {
	if len(x) != fn.NParams {
		panic(fmt.Sprintf("interp: %s expects %d inputs, got %d", fn.Name, fn.NParams, len(x)))
	}
	max := it.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	it.steps = 0
	it.input = x
	var ret float64
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(budgetExceeded); ok {
					ret = math.NaN()
					return
				}
				panic(r)
			}
		}()
		ret = it.call(ctx, fn, x, max)
	}()
	return ret
}

// call executes one function activation.
func (it *Interp) call(ctx *rt.Ctx, fn *ir.Func, args []float64, max int) float64 {
	fregs := make([]float64, fn.NumRegs())
	bregs := make([]bool, fn.NumRegs())
	copy(fregs, args)

	bi := 0
	ii := 0
	for {
		it.steps++
		if it.steps > max {
			panic(budgetExceeded{})
		}
		in := &fn.Blocks[bi].Instrs[ii]
		ii++
		switch in.Op {
		case ir.ConstF:
			fregs[in.Dst] = in.Val
		case ir.ConstB:
			bregs[in.Dst] = in.BVal
		case ir.Mov:
			if fn.Kinds[in.Dst] == ir.RegB {
				bregs[in.Dst] = bregs[in.A]
			} else {
				fregs[in.Dst] = fregs[in.A]
			}
		case ir.FAdd:
			fregs[in.Dst] = ctx.Op(in.Site, fregs[in.A]+fregs[in.B])
		case ir.FSub:
			fregs[in.Dst] = ctx.Op(in.Site, fregs[in.A]-fregs[in.B])
		case ir.FMul:
			fregs[in.Dst] = ctx.Op(in.Site, fregs[in.A]*fregs[in.B])
		case ir.FDiv:
			fregs[in.Dst] = ctx.Op(in.Site, fregs[in.A]/fregs[in.B])
		case ir.FNeg:
			fregs[in.Dst] = -fregs[in.A]
		case ir.FCmp:
			bregs[in.Dst] = ctx.Cmp(in.Site, in.Pred, fregs[in.A], fregs[in.B])
		case ir.Not:
			bregs[in.Dst] = !bregs[in.A]
		case ir.Call:
			// The callee pointer is cached at lowering time (Module.Link);
			// the map lookup survives only as a fallback for hand-built
			// modules that skipped Link.
			callee := in.Callee
			if callee == nil {
				callee = it.Mod.Funcs[in.Name]
			}
			// The argument scratch buffer is reusable even under
			// recursion: the callee copies it into its own frame at entry,
			// before any nested call can clobber it.
			if cap(it.cargs) < len(in.Args) {
				it.cargs = make([]float64, len(in.Args))
			}
			cargs := it.cargs[:len(in.Args)]
			for i, a := range in.Args {
				cargs[i] = fregs[a]
			}
			v := it.call(ctx, callee, cargs, max)
			if in.Dst >= 0 {
				if fn.Kinds[in.Dst] == ir.RegB {
					bregs[in.Dst] = v != 0
				} else {
					fregs[in.Dst] = v
				}
			}
		case ir.CallBuiltin:
			// Builtins are resolved to function pointers at lowering
			// time (Module.Link); the name-based lookup survives only as
			// a fallback for hand-built modules that skipped Link,
			// mirroring the Call fallback above. (No caching here: the
			// module may be shared across concurrent instances.)
			var v float64
			fn1, fn2 := in.Fn1, in.Fn2
			if fn1 == nil && fn2 == nil {
				var err error
				fn1, fn2, err = builtins.Resolve(in.Name, len(in.Args))
				if err != nil {
					panic(fmt.Sprintf("interp: %v", err))
				}
			}
			if fn1 != nil {
				v = fn1(fregs[in.Args[0]])
			} else {
				v = fn2(fregs[in.Args[0]], fregs[in.Args[1]])
			}
			fregs[in.Dst] = ctx.Op(in.Site, v)
		case ir.Jmp:
			bi, ii = in.Target, 0
		case ir.CondJmp:
			if bregs[in.A] {
				bi, ii = in.Target, 0
			} else {
				bi, ii = in.Else, 0
			}
		case ir.Ret:
			if in.A >= 0 {
				if fn.Kinds[in.A] == ir.RegB {
					if bregs[in.A] {
						return 1
					}
					return 0
				}
				return fregs[in.A]
			}
			return 0
		case ir.Assert:
			if !bregs[in.A] {
				it.Failures = append(it.Failures, AssertFailure{
					Pos:   in.Pos,
					Label: in.Label,
					Input: append([]float64(nil), it.input...),
				})
			}
		default:
			panic(fmt.Sprintf("interp: unknown opcode %s", in.Op))
		}
	}
}
