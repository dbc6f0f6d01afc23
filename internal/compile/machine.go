package compile

import (
	"fmt"
	"math"

	"repro/internal/lang"
	"repro/internal/rt"
)

// AssertFailure records a violated assert statement during a run.
type AssertFailure struct {
	Pos   lang.Pos
	Label string
	Input []float64
}

func (a AssertFailure) String() string {
	return fmt.Sprintf("%s: assertion %q violated with input %v", a.Pos, a.Label, a.Input)
}

// status is the non-local control outcome of a run. Both abort kinds
// unwind through ordinary returns — the flat-code engine has no
// defer/recover on its execution path.
type status uint8

const (
	statusOK     status = iota
	statusBudget        // step budget exhausted
	statusStop          // monitor requested early termination
)

// frame is one suspended caller activation on the machine's explicit
// call stack (execution is threaded, not Go-recursive). It is
// deliberately pointer-free — the function is recorded by module index —
// so pushing frames incurs no GC write barriers.
type frame struct {
	fidx  int32
	base  int32
	pc    int32
	dst   int32  // result capture register of the call instruction
	op    opcode // opCallF/opCallB/opCallVoid
	extra uint8  // deferred step charge of a mov fused into the call
}

// Machine executes compiled code. It owns all per-execution mutable
// state — the frame arena, the call stack, the step counter, the
// failure log — so one Machine must not be used concurrently, but any
// number of Machines can share one Module. The arena and stack grow on
// first use and are reused by every subsequent run: steady-state
// execution performs no heap allocation.
type Machine struct {
	mod *Module

	// MaxSteps bounds instructions per execution; zero selects
	// DefaultMaxSteps. A run that exceeds the bound is abandoned and
	// reports NaN, exactly like the tree-walker.
	MaxSteps int

	// OnAssertFailure, when non-nil, receives every assertion violation;
	// otherwise violations accumulate in Failures.
	OnAssertFailure func(AssertFailure)
	// Failures collects assertion violations when no OnAssertFailure
	// sink is installed.
	Failures []AssertFailure

	fr    []float64 // float frame arena; an activation occupies [base, base+nregs)
	br    []bool    // bool frame arena, parallel to fr
	stack []frame   // suspended callers
	input []float64
}

// NewMachine returns a machine executing the module's code.
func (cm *Module) NewMachine() *Machine {
	return &Machine{mod: cm, stack: make([]frame, 16)}
}

// Run executes fn on x under ctx, returning its result (0 for void
// functions, 1/0 for bool results, NaN when the step budget is
// exceeded). Monitor early stops unwind through ordinary returns (the
// result is then meaningless, as the tree-walker's is —
// rt.Program.Execute reads the monitor, not the return value).
func (vm *Machine) Run(ctx *rt.Ctx, fn *Func, x []float64) float64 {
	if len(x) != fn.NParams {
		panic(fmt.Sprintf("compile: %s expects %d inputs, got %d", fn.Name, fn.NParams, len(x)))
	}
	vm.input = x
	vm.ensure(fn.nregs)
	// Fresh frame with parameters in registers 0..NParams-1. Zeroing is
	// skipped when the def-before-use analysis proved stale contents
	// unobservable; otherwise this reproduces the tree-walker's
	// make()+copy initial state.
	if fn.zeroFrame {
		fr := vm.fr[:fn.nregs]
		for i := range fr {
			fr[i] = 0
		}
		br := vm.br[:fn.nregs]
		for i := range br {
			br[i] = false
		}
	}
	for i, v := range x {
		vm.fr[i] = v
	}
	v, st := vm.exec(ctx.Monitor(), fn)
	if st == statusBudget {
		return math.NaN()
	}
	return v
}

// ensure grows the frame arena to hold at least n registers, preserving
// the contents of every live activation frame.
func (vm *Machine) ensure(n int) {
	if n <= len(vm.fr) {
		return
	}
	grow := 2*len(vm.fr) + 64
	if grow < n {
		grow = n
	}
	nf := make([]float64, grow)
	copy(nf, vm.fr)
	vm.fr = nf
	nb := make([]bool, grow)
	copy(nb, vm.br)
	vm.br = nb
}

// exec is the threaded dispatch loop. Calls push the caller onto an
// explicit frame stack instead of recursing, so the step counter stays
// in a register for the whole run and deep FPL recursion cannot grow
// the Go stack.
//
// Step accounting matches the tree-walker exactly. Fused instructions
// carry the steps of the instructions they replaced: a pre-observation
// sub-step performs an explicit budget check (an abort must land before
// the observation, as it would have in the tree-walker), while
// post-observation sub-steps are charged via in.extra without a check —
// the next dispatch check fires before anything else observable
// happens, so the abort point is indistinguishable.
func (vm *Machine) exec(mon rt.Monitor, fn *Func) (float64, status) {
	f := fn
	base := 0
	code := f.code
	fr := vm.fr[base : base+f.nregs]
	br := vm.br[base : base+f.nregs]
	list := vm.mod.list
	stack := vm.stack
	sp := 0
	limit := vm.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}
	steps := 0
	pc := 0
	for {
		steps++
		if steps > limit {
			vm.stack = stack[:cap(stack)]
			return 0, statusBudget
		}
		in := &code[pc]
		pc++
		switch in.op {
		case opConstF:
			fr[in.dst] = f.consts[in.a]
		case opConstB:
			br[in.dst] = in.a != 0
		case opMovF:
			fr[in.dst] = fr[in.a]
		case opMovB:
			br[in.dst] = br[in.a]
		case opFAdd:
			v := fr[in.a] + fr[in.b]
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opFSub:
			v := fr[in.a] - fr[in.b]
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opFMul:
			v := fr[in.a] * fr[in.b]
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opFDiv:
			v := fr[in.a] / fr[in.b]
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opAddCL, opAddCR, opSubCL, opSubCR, opMulCL, opMulCR, opDivCL, opDivCR:
			// Fused constant-load + arithmetic: the dispatch check above
			// covered the constant's step; this is the operation's step,
			// checked before the observation.
			steps++
			if steps > limit {
				vm.stack = stack[:cap(stack)]
				return 0, statusBudget
			}
			r := fr[in.a]
			k := f.consts[in.b]
			var v float64
			switch in.op {
			case opAddCL:
				v = k + r
			case opAddCR:
				v = r + k
			case opSubCL:
				v = k - r
			case opSubCR:
				v = r - k
			case opMulCL:
				v = k * r
			case opMulCR:
				v = r * k
			case opDivCL:
				v = k / r
			default:
				v = r / k
			}
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opFNeg:
			fr[in.dst] = -fr[in.a]
		case opFCmp:
			a, b := fr[in.a], fr[in.b]
			mon.Branch(int(in.site), in.pred, a, b)
			br[in.dst] = in.pred.Eval(a, b)
		case opCmpCL:
			steps++
			if steps > limit {
				vm.stack = stack[:cap(stack)]
				return 0, statusBudget
			}
			k, b := f.consts[in.b], fr[in.a]
			mon.Branch(int(in.site), in.pred, k, b)
			br[in.dst] = in.pred.Eval(k, b)
		case opCmpCR:
			steps++
			if steps > limit {
				vm.stack = stack[:cap(stack)]
				return 0, statusBudget
			}
			a, k := fr[in.a], f.consts[in.b]
			mon.Branch(int(in.site), in.pred, a, k)
			br[in.dst] = in.pred.Eval(a, k)
		case opFCmpJmp:
			a, b := fr[in.a], fr[in.b]
			mon.Branch(int(in.site), in.pred, a, b)
			steps++ // the fused CondJmp's step; checked at next dispatch
			if in.pred.Eval(a, b) {
				pc = int(in.target)
			} else {
				pc = int(in.els)
			}
			continue
		case opCmpCLJmp:
			steps++
			if steps > limit {
				vm.stack = stack[:cap(stack)]
				return 0, statusBudget
			}
			k, b := f.consts[in.b], fr[in.a]
			mon.Branch(int(in.site), in.pred, k, b)
			steps++
			if in.pred.Eval(k, b) {
				pc = int(in.target)
			} else {
				pc = int(in.els)
			}
			continue
		case opCmpCRJmp:
			steps++
			if steps > limit {
				vm.stack = stack[:cap(stack)]
				return 0, statusBudget
			}
			a, k := fr[in.a], f.consts[in.b]
			mon.Branch(int(in.site), in.pred, a, k)
			steps++
			if in.pred.Eval(a, k) {
				pc = int(in.target)
			} else {
				pc = int(in.els)
			}
			continue
		case opNot:
			br[in.dst] = !br[in.a]
		case opBuiltin1:
			v := f.b1[in.target](fr[in.a])
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opBuiltin2:
			v := f.b2[in.target](fr[in.a], fr[in.b])
			if mon.FPOp(int(in.site), v) {
				vm.stack = stack[:cap(stack)]
				return 0, statusStop
			}
			fr[in.dst] = v
		case opCallF, opCallB, opCallVoid:
			ci := &f.calls[in.a]
			callee := ci.fn
			cb := base + f.nregs
			vm.ensure(cb + callee.nregs)
			// The arena may have moved; re-slice before touching it.
			fr = vm.fr[base : base+f.nregs]
			if callee.zeroFrame {
				cfr := vm.fr[cb : cb+callee.nregs]
				for i := range cfr {
					cfr[i] = 0
				}
				cbr := vm.br[cb : cb+callee.nregs]
				for i := range cbr {
					cbr[i] = false
				}
			}
			cfr := vm.fr[cb : cb+callee.nregs]
			for i, a := range ci.args {
				cfr[i] = fr[a]
			}
			if sp == len(stack) {
				stack = append(stack, make([]frame, len(stack))...)
			}
			top := &stack[sp]
			sp++
			top.fidx, top.base, top.pc = f.idx, int32(base), int32(pc)
			top.dst, top.op, top.extra = in.dst, in.op, in.extra
			f, base, pc = callee, cb, 0
			code = f.code
			fr = cfr
			br = vm.br[base : base+f.nregs]
			continue // in.extra is charged at return, not at call
		case opJmp:
			pc = int(in.target)
			continue
		case opCondJmp:
			if br[in.a] {
				pc = int(in.target)
			} else {
				pc = int(in.els)
			}
			continue
		case opRetF, opRetB, opRetVoid:
			var v float64
			if in.op == opRetF {
				v = fr[in.a]
			} else if in.op == opRetB && br[in.a] {
				v = 1
			}
			if sp == 0 {
				vm.stack = stack
				return v, statusOK
			}
			sp--
			top := &stack[sp]
			f, base, pc = list[top.fidx], int(top.base), int(top.pc)
			code = f.code
			fr = vm.fr[base : base+f.nregs]
			br = vm.br[base : base+f.nregs]
			switch top.op {
			case opCallF:
				fr[top.dst] = v
			case opCallB:
				br[top.dst] = v != 0
			}
			steps += int(top.extra) // mov fused into the call site
			continue
		case opAssert:
			if !br[in.a] {
				info := vm.mod.asserts[in.site]
				fail := AssertFailure{
					Pos:   info.pos,
					Label: info.label,
					Input: append([]float64(nil), vm.input...),
				}
				if vm.OnAssertFailure != nil {
					vm.OnAssertFailure(fail)
				} else {
					vm.Failures = append(vm.Failures, fail)
				}
			}
		default:
			panic(fmt.Sprintf("compile: unknown opcode %d", in.op))
		}
		// Deferred charge of a post-observation fused sub-step (a mov
		// folded into the producing instruction); the next dispatch
		// check accounts for it before anything observable.
		steps += int(in.extra)
	}
}
