package ir

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/lang"
	"repro/internal/rt"
)

// Builder is the one place IR is built: both frontends (Lower for FPL,
// internal/gofront for Go) lower through it, so every module shares one
// register and block numbering, one site numbering, and one shape for
// each control construct. A frontend keeps only its language's work —
// binding names to registers, folding, diagnostics — and hands the
// builder positions and source text.
//
// Sites are numbered module-wide in emission order and labelled
// "where: text", where is the frontend's rendering of the source
// position. Instructions without a site carry NoSite.
type Builder struct {
	mod   *Module
	fn    *Func
	cur   int // current block index
	loops []loopTargets
}

// loopTargets records where break and continue jump inside the
// innermost enclosing loop.
type loopTargets struct {
	brk, cont int
}

// NewBuilder starts an empty module.
func NewBuilder() *Builder {
	return &Builder{mod: &Module{Funcs: map[string]*Func{}}}
}

// BeginFunc starts a function with nparams parameters and an empty
// entry block. The caller allocates the parameter registers next, in
// order, with NewReg.
func (b *Builder) BeginFunc(name string, nparams int, ret RetKind) {
	b.fn = &Func{Name: name, NParams: nparams, Ret: ret}
	b.cur = b.newBlock()
}

// EndFunc closes the function under construction and adds it to the
// module. A body whose last block falls through gets the epilogue of
// its return kind: a zero value (or nothing) returned at pos. The
// frontends' checkers guarantee such a tail is unreachable in returning
// functions, but the IR still needs a terminator.
func (b *Builder) EndFunc(pos lang.Pos) {
	if !b.terminated() {
		switch b.fn.Ret {
		case RetF:
			z := b.NewReg(RegF)
			b.ConstF(z, 0, pos)
			b.Ret(z, pos)
		case RetB:
			z := b.NewReg(RegB)
			b.ConstB(z, false, pos)
			b.Ret(z, pos)
		default:
			b.Ret(-1, pos)
		}
	}
	b.mod.Funcs[b.fn.Name] = b.fn
	b.mod.Order = append(b.mod.Order, b.fn.Name)
	b.fn = nil
}

// Finish verifies the module and links its calls, so a lowering bug
// fails here rather than mid-analysis and neither execution engine pays
// name resolution per call.
func (b *Builder) Finish() (*Module, error) {
	if err := b.mod.Verify(); err != nil {
		return nil, fmt.Errorf("lowering produced invalid IR: %w", err)
	}
	if err := b.mod.Link(); err != nil {
		return nil, err
	}
	return b.mod, nil
}

// NewReg allocates a register of kind k in the current function.
func (b *Builder) NewReg(k RegKind) Reg {
	b.fn.Kinds = append(b.fn.Kinds, k)
	return Reg(len(b.fn.Kinds) - 1)
}

// Kind returns the kind of register r.
func (b *Builder) Kind(r Reg) RegKind { return b.fn.Kinds[r] }

func (b *Builder) newBlock() int {
	b.fn.Blocks = append(b.fn.Blocks, Block{})
	return len(b.fn.Blocks) - 1
}

// terminated reports whether the current block already ends in a
// terminator.
func (b *Builder) terminated() bool {
	instrs := b.fn.Blocks[b.cur].Instrs
	if len(instrs) == 0 {
		return false
	}
	switch instrs[len(instrs)-1].Op {
	case Jmp, CondJmp, Ret:
		return true
	}
	return false
}

// Open readies the current block for another statement: code after a
// return, break or continue is unreachable, and lowers into a fresh
// dead block to keep the IR well formed.
func (b *Builder) Open() {
	if b.terminated() {
		b.cur = b.newBlock()
	}
}

func (b *Builder) emit(in Instr) {
	blk := &b.fn.Blocks[b.cur]
	blk.Instrs = append(blk.Instrs, in)
}

func (b *Builder) opSite(where, text string) int {
	id := len(b.mod.OpSites)
	b.mod.OpSites = append(b.mod.OpSites, rt.OpInfo{ID: id, Label: where + ": " + text})
	return id
}

func (b *Builder) branchSite(where, text string, pred fp.CmpOp) int {
	id := len(b.mod.BranchSites)
	b.mod.BranchSites = append(b.mod.BranchSites, rt.BranchInfo{ID: id, Label: where + ": " + text, Op: pred})
	return id
}

// ConstF emits dst = v.
func (b *Builder) ConstF(dst Reg, v float64, pos lang.Pos) {
	b.emit(Instr{Op: ConstF, Dst: dst, Val: v, Site: NoSite, Pos: pos})
}

// ConstB emits dst = v.
func (b *Builder) ConstB(dst Reg, v bool, pos lang.Pos) {
	b.emit(Instr{Op: ConstB, Dst: dst, BVal: v, Site: NoSite, Pos: pos})
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src Reg, pos lang.Pos) {
	b.emit(Instr{Op: Mov, Dst: dst, A: src, Site: NoSite, Pos: pos})
}

// Arith emits dst = x op y (op one of FAdd, FSub, FMul, FDiv) as a new
// floating-point operation site.
func (b *Builder) Arith(op Opcode, dst, x, y Reg, pos lang.Pos, where, text string) {
	site := b.opSite(where, text)
	b.emit(Instr{Op: op, Dst: dst, A: x, B: y, Site: site, Pos: pos, Label: text})
}

// FNeg emits dst = -x. Sign flips are exact, so FNeg is no site.
func (b *Builder) FNeg(dst, x Reg, pos lang.Pos) {
	b.emit(Instr{Op: FNeg, Dst: dst, A: x, Site: NoSite, Pos: pos})
}

// Not emits dst = !x.
func (b *Builder) Not(dst, x Reg, pos lang.Pos) {
	b.emit(Instr{Op: Not, Dst: dst, A: x, Site: NoSite, Pos: pos})
}

// FCmp emits dst = x pred y as a new branch site.
func (b *Builder) FCmp(dst Reg, pred fp.CmpOp, x, y Reg, pos lang.Pos, where, text string) {
	site := b.branchSite(where, text, pred)
	b.emit(Instr{Op: FCmp, Dst: dst, A: x, B: y, Pred: pred, Site: site, Pos: pos, Label: text})
}

// Call emits dst = name(args...) for a user function; dst < 0 discards
// the result of a void call.
func (b *Builder) Call(dst Reg, name string, args []Reg, pos lang.Pos, label string) {
	b.emit(Instr{Op: Call, Dst: dst, Name: name, Args: args, Site: NoSite, Pos: pos, Label: label})
}

// CallBuiltin emits dst = name(args...) for a math builtin, a new
// floating-point operation site (library calls can overflow).
func (b *Builder) CallBuiltin(dst Reg, name string, args []Reg, pos lang.Pos, where, text string) {
	site := b.opSite(where, text)
	b.emit(Instr{Op: CallBuiltin, Dst: dst, Name: name, Args: args, Site: site, Pos: pos, Label: text})
}

// Ret emits a return of v (v < 0 returns nothing).
func (b *Builder) Ret(v Reg, pos lang.Pos) {
	b.emit(Instr{Op: Ret, A: v, Site: NoSite, Pos: pos})
}

// Assert emits an assertion of cond, reported under label.
func (b *Builder) Assert(cond Reg, pos lang.Pos, label string) {
	b.emit(Instr{Op: Assert, A: cond, Site: NoSite, Pos: pos, Label: label})
}

func (b *Builder) jmp(target int, pos lang.Pos) {
	b.emit(Instr{Op: Jmp, Target: target, Site: NoSite, Pos: pos})
}

func (b *Builder) condJmp(cond Reg, target, els int, pos lang.Pos) {
	b.emit(Instr{Op: CondJmp, A: cond, Target: target, Else: els, Site: NoSite, Pos: pos})
}

// jmpUnlessTerminated closes the current block with a jump to target
// when it still falls through.
func (b *Builder) jmpUnlessTerminated(target int, pos lang.Pos) {
	if !b.terminated() {
		b.jmp(target, pos)
	}
}

// If lowers an if statement on the already lowered cond: then runs in a
// new block, els (nil when there is no else branch) in another, and
// both fall through to a join block where lowering continues. Blocks
// are allocated then, join, else.
func (b *Builder) If(cond Reg, pos lang.Pos, then, els func() error) error {
	thenB := b.newBlock()
	joinB := b.newBlock()
	elseB := joinB
	if els != nil {
		elseB = b.newBlock()
	}
	b.condJmp(cond, thenB, elseB, pos)
	b.cur = thenB
	if err := then(); err != nil {
		return err
	}
	b.jmpUnlessTerminated(joinB, pos)
	if els != nil {
		b.cur = elseB
		if err := els(); err != nil {
			return err
		}
		b.jmpUnlessTerminated(joinB, pos)
	}
	b.cur = joinB
	return nil
}

// Loop lowers a loop: a head block that tests cond (nil loops
// unconditionally), the body, an exit block where lowering continues,
// and — only when post is non-nil — a continue block that runs post
// before the next test. Blocks are allocated head, body, exit, continue.
// Break and Continue inside body jump to the exit and continue blocks
// (the head when there is no post).
func (b *Builder) Loop(pos lang.Pos, cond func() (Reg, error), body, post func() error) error {
	headB := b.newBlock()
	bodyB := b.newBlock()
	exitB := b.newBlock()
	contB := headB
	if post != nil {
		contB = b.newBlock()
	}
	b.jmp(headB, pos)
	b.cur = headB
	if cond != nil {
		c, err := cond()
		if err != nil {
			return err
		}
		b.condJmp(c, bodyB, exitB, pos)
	} else {
		b.jmp(bodyB, pos)
	}
	b.cur = bodyB
	b.loops = append(b.loops, loopTargets{brk: exitB, cont: contB})
	err := body()
	b.loops = b.loops[:len(b.loops)-1]
	if err != nil {
		return err
	}
	b.jmpUnlessTerminated(contB, pos)
	if post != nil {
		b.cur = contB
		if err := post(); err != nil {
			return err
		}
		b.jmpUnlessTerminated(headB, pos)
	}
	b.cur = exitB
	return nil
}

// Break jumps out of the innermost loop; it reports false outside one.
func (b *Builder) Break(pos lang.Pos) bool {
	if len(b.loops) == 0 {
		return false
	}
	b.jmp(b.loops[len(b.loops)-1].brk, pos)
	return true
}

// Continue jumps to the next iteration of the innermost loop; it
// reports false outside one.
func (b *Builder) Continue(pos lang.Pos) bool {
	if len(b.loops) == 0 {
		return false
	}
	b.jmp(b.loops[len(b.loops)-1].cont, pos)
	return true
}

// ShortCircuit lowers x && y (and) or x || y with real control flow, so
// the right operand — and every site inside it — only executes, and is
// only observed, when the left operand does not decide the result. The
// result register is allocated before either operand is lowered.
func (b *Builder) ShortCircuit(and bool, pos lang.Pos, x, y func() (Reg, error)) (Reg, error) {
	res := b.NewReg(RegB)
	xr, err := x()
	if err != nil {
		return -1, err
	}
	b.Mov(res, xr, pos)
	rhsB := b.newBlock()
	joinB := b.newBlock()
	if and {
		b.condJmp(res, rhsB, joinB, pos)
	} else {
		b.condJmp(res, joinB, rhsB, pos)
	}
	b.cur = rhsB
	yr, err := y()
	if err != nil {
		return -1, err
	}
	b.Mov(res, yr, pos)
	b.jmp(joinB, pos)
	b.cur = joinB
	return res, nil
}
