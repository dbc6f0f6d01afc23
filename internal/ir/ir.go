// Package ir defines the three-address intermediate representation that
// FPL and Go programs are lowered to, through one Builder, before
// interpretation. The IR mirrors the property the paper relies on at
// the LLVM level (§4.4): every floating-point operation is exactly one
// instruction, so the instrumentation sites of Algorithm 3 — "inject
// after each floating-point operation l" — are well defined. Likewise
// every floating-point comparison is one FCmp instruction, giving the
// branch sites that the boundary (§4.2) and path (§4.3) weak distances
// instrument.
//
// Functions are graphs of basic blocks over a flat virtual register
// file; the representation is deliberately not SSA — the interpreter in
// internal/interp executes registers directly, and no optimization is
// performed (analyses must observe the program as written).
package ir

import (
	"fmt"

	"repro/internal/builtins"
	"repro/internal/fp"
	"repro/internal/lang"
	"repro/internal/rt"
)

// Reg is a virtual register index within a function frame.
type Reg int

// RegKind is the runtime kind of a register.
type RegKind uint8

// Register kinds.
const (
	RegF RegKind = iota // float64
	RegB                // bool
)

// Opcode enumerates IR instructions.
type Opcode uint8

// Instruction opcodes.
const (
	// ConstF: Dst = Val.
	ConstF Opcode = iota
	// ConstB: Dst = BVal.
	ConstB
	// Mov: Dst = A (same kind).
	Mov
	// FAdd, FSub, FMul, FDiv: Dst = A op B. Floating-point operation
	// sites (observed via Site).
	FAdd
	FSub
	FMul
	FDiv
	// FNeg: Dst = -A. Sign flips are exact, so FNeg is not an
	// overflow-observable site, but it is still a distinct instruction.
	FNeg
	// FCmp: Dst(bool) = A Pred B. Branch-condition site (observed via
	// Site).
	FCmp
	// Not: Dst(bool) = !A.
	Not
	// Call: Dst = Name(Args...) for user functions; Dst < 0 for void
	// calls.
	Call
	// CallBuiltin: Dst = Name(Args...) for math builtins. The result is
	// a floating-point operation site (library calls can overflow).
	CallBuiltin
	// Jmp: unconditional jump to block Target.
	Jmp
	// CondJmp: jump to Target when A holds, else to Else.
	CondJmp
	// Ret: return A (Reg < 0 when the function returns nothing).
	Ret
	// Assert: record an assertion outcome of condition A.
	Assert
)

var opcodeNames = [...]string{
	ConstF: "constf", ConstB: "constb", Mov: "mov",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FCmp: "fcmp", Not: "not",
	Call: "call", CallBuiltin: "callb",
	Jmp: "jmp", CondJmp: "condjmp", Ret: "ret", Assert: "assert",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsFPArith reports whether the opcode is an arithmetic floating-point
// operation site in the sense of Algorithm 3.
func (o Opcode) IsFPArith() bool {
	switch o {
	case FAdd, FSub, FMul, FDiv, CallBuiltin:
		return true
	}
	return false
}

// NoSite marks instructions without an instrumentation site.
const NoSite = -1

// Instr is one IR instruction. Fields are used per-opcode as documented
// on the opcodes.
type Instr struct {
	Op   Opcode
	Dst  Reg
	A, B Reg
	Val  float64  // ConstF immediate
	BVal bool     // ConstB immediate
	Pred fp.CmpOp // FCmp predicate
	Name string   // Call/CallBuiltin callee
	Args []Reg    // Call/CallBuiltin arguments

	// Site is the module-wide instrumentation site: an FP-operation
	// site for arithmetic and builtin calls, a branch site for FCmp,
	// NoSite otherwise.
	Site int

	// Callee caches the resolved *Func for Call instructions so
	// execution engines never pay a map lookup per call. Builder.Finish
	// fills it via Module.Link; hand-built modules should call Link
	// themselves.
	Callee *Func
	// Fn1 and Fn2 cache the resolved implementation for CallBuiltin
	// instructions (exactly one is non-nil, matching the arity).
	// Resolution happens at lowering time, making an unknown builtin a
	// compile-time error rather than a runtime panic.
	Fn1 func(float64) float64
	Fn2 func(float64, float64) float64

	// Target and Else are block indices for Jmp/CondJmp.
	Target, Else int

	// Pos is the source position; Label the source text used in site
	// tables.
	Pos   lang.Pos
	Label string
}

// Block is a basic block: straight-line instructions terminated by a
// jump or return (enforced by Verify).
type Block struct {
	Instrs []Instr
}

// RetKind describes what a function returns.
type RetKind uint8

// Return kinds.
const (
	RetNone RetKind = iota // void
	RetF                   // double
	RetB                   // bool
)

// Func is an IR function.
type Func struct {
	Name string
	// NParams parameters arrive in registers 0..NParams-1 (all double).
	NParams int
	// Ret is the function's return kind.
	Ret RetKind
	// Blocks; entry is block 0.
	Blocks []Block
	// Kinds gives the kind of every register in the frame.
	Kinds []RegKind
}

// NumRegs returns the frame size.
func (f *Func) NumRegs() int { return len(f.Kinds) }

// Module is a compiled FPL file: functions plus the module-wide
// instrumentation site tables.
type Module struct {
	Funcs map[string]*Func
	// Order preserves declaration order for printing.
	Order []string
	// OpSites inventories every floating-point operation site (the set
	// L̄ of §4.4).
	OpSites []rt.OpInfo
	// BranchSites inventories every branch-condition site.
	BranchSites []rt.BranchInfo
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	return m.Funcs[name]
}

// Link resolves the cached execution pointers of every instruction:
// Call instructions get their Callee, CallBuiltin instructions their
// Fn1/Fn2 implementation. Builder.Finish calls Link; modules built
// by hand must call it before execution. Unknown callees or builtins
// are reported as errors.
func (m *Module) Link() error {
	for _, name := range m.Order {
		f := m.Funcs[name]
		if f == nil {
			return fmt.Errorf("ir: order lists unknown function %s", name)
		}
		for bi := range f.Blocks {
			instrs := f.Blocks[bi].Instrs
			for ii := range instrs {
				in := &instrs[ii]
				switch in.Op {
				case Call:
					in.Callee = m.Funcs[in.Name]
					if in.Callee == nil {
						return fmt.Errorf("ir: %s calls unknown function %s", name, in.Name)
					}
				case CallBuiltin:
					fn1, fn2, err := builtins.Resolve(in.Name, len(in.Args))
					if err != nil {
						return fmt.Errorf("ir: %s: %w", name, err)
					}
					in.Fn1, in.Fn2 = fn1, fn2
				}
			}
		}
	}
	return nil
}

// Verify checks structural invariants of the module: blocks terminate
// exactly once, jump targets are in range, register indices and kinds
// are consistent, and site identifiers are dense and in range. Lowering
// bugs surface here rather than as interpreter panics.
func (m *Module) Verify() error {
	for _, name := range m.Order {
		f := m.Funcs[name]
		if f == nil {
			return fmt.Errorf("ir: order lists unknown function %s", name)
		}
		if err := m.verifyFunc(f); err != nil {
			return fmt.Errorf("ir: function %s: %w", name, err)
		}
	}
	return nil
}

func (m *Module) verifyFunc(f *Func) error {
	if f.NParams > f.NumRegs() {
		return fmt.Errorf("frame smaller than parameter count")
	}
	for i := 0; i < f.NParams; i++ {
		if f.Kinds[i] != RegF {
			return fmt.Errorf("parameter register r%d must be float", i)
		}
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	checkReg := func(r Reg, kind RegKind, what string) error {
		if r < 0 || int(r) >= f.NumRegs() {
			return fmt.Errorf("%s register r%d out of range", what, r)
		}
		if f.Kinds[r] != kind {
			return fmt.Errorf("%s register r%d has kind %d, want %d", what, r, f.Kinds[r], kind)
		}
		return nil
	}
	checkBlock := func(b int) error {
		if b < 0 || b >= len(f.Blocks) {
			return fmt.Errorf("jump target block %d out of range", b)
		}
		return nil
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block b%d empty", bi)
		}
		for ii, in := range b.Instrs {
			last := ii == len(b.Instrs)-1
			isTerm := in.Op == Jmp || in.Op == CondJmp || in.Op == Ret
			if last != isTerm {
				return fmt.Errorf("block b%d instr %d (%s): terminator placement", bi, ii, in.Op)
			}
			var err error
			switch in.Op {
			case ConstF:
				err = checkReg(in.Dst, RegF, "dst")
			case ConstB:
				err = checkReg(in.Dst, RegB, "dst")
			case Mov:
				if e := checkReg(in.Dst, f.kindOf(in.A), "dst"); e != nil {
					err = e
				} else {
					err = checkRegAny(f, in.A, "src")
				}
			case FAdd, FSub, FMul, FDiv:
				err = firstErr(
					checkReg(in.Dst, RegF, "dst"),
					checkReg(in.A, RegF, "a"),
					checkReg(in.B, RegF, "b"),
					m.checkOpSite(in.Site),
				)
			case FNeg:
				err = firstErr(checkReg(in.Dst, RegF, "dst"), checkReg(in.A, RegF, "a"))
			case FCmp:
				err = firstErr(
					checkReg(in.Dst, RegB, "dst"),
					checkReg(in.A, RegF, "a"),
					checkReg(in.B, RegF, "b"),
					m.checkBranchSite(in.Site),
				)
			case Not:
				err = firstErr(checkReg(in.Dst, RegB, "dst"), checkReg(in.A, RegB, "a"))
			case Call:
				callee := m.Funcs[in.Name]
				if callee == nil {
					err = fmt.Errorf("call to unknown function %s", in.Name)
					break
				}
				if len(in.Args) != callee.NParams {
					err = fmt.Errorf("call to %s with %d args, want %d", in.Name, len(in.Args), callee.NParams)
					break
				}
				for _, a := range in.Args {
					if e := checkReg(a, RegF, "arg"); e != nil {
						err = e
						break
					}
				}
				if err == nil && in.Dst >= 0 {
					switch callee.Ret {
					case RetNone:
						err = fmt.Errorf("call captures result of void function %s", in.Name)
					case RetF:
						err = checkReg(in.Dst, RegF, "dst")
					case RetB:
						err = checkReg(in.Dst, RegB, "dst")
					}
				}
			case CallBuiltin:
				if builtins.Arity(in.Name) == 0 {
					err = fmt.Errorf("unknown builtin %s", in.Name)
					break
				}
				for _, a := range in.Args {
					if e := checkReg(a, RegF, "arg"); e != nil {
						err = e
						break
					}
				}
				if err == nil {
					err = firstErr(checkReg(in.Dst, RegF, "dst"), m.checkOpSite(in.Site))
				}
			case Jmp:
				err = checkBlock(in.Target)
			case CondJmp:
				err = firstErr(checkReg(in.A, RegB, "cond"), checkBlock(in.Target), checkBlock(in.Else))
			case Ret:
				if in.A >= 0 {
					switch f.Ret {
					case RetNone:
						err = fmt.Errorf("ret with value in void function")
					case RetF:
						err = checkReg(in.A, RegF, "ret")
					case RetB:
						err = checkReg(in.A, RegB, "ret")
					}
				} else if f.Ret != RetNone {
					err = fmt.Errorf("ret without value in returning function")
				}
			case Assert:
				err = checkReg(in.A, RegB, "cond")
			default:
				err = fmt.Errorf("unknown opcode %d", in.Op)
			}
			if err != nil {
				return fmt.Errorf("block b%d instr %d (%s): %w", bi, ii, in.Op, err)
			}
		}
	}
	return nil
}

func (f *Func) kindOf(r Reg) RegKind {
	if r >= 0 && int(r) < len(f.Kinds) {
		return f.Kinds[r]
	}
	return RegF
}

func checkRegAny(f *Func, r Reg, what string) error {
	if r < 0 || int(r) >= f.NumRegs() {
		return fmt.Errorf("%s register r%d out of range", what, r)
	}
	return nil
}

func (m *Module) checkOpSite(s int) error {
	if s < 0 || s >= len(m.OpSites) {
		return fmt.Errorf("op site %d out of range [0,%d)", s, len(m.OpSites))
	}
	return nil
}

func (m *Module) checkBranchSite(s int) error {
	if s < 0 || s >= len(m.BranchSites) {
		return fmt.Errorf("branch site %d out of range [0,%d)", s, len(m.BranchSites))
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
