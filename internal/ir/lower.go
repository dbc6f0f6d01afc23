package ir

import (
	"errors"
	"fmt"

	"repro/internal/fp"
	"repro/internal/lang"
)

// Lower compiles a checked FPL file into an IR module, assigning
// module-wide instrumentation sites to every floating-point operation
// and branch condition. Lower assumes lang.Check succeeded; violations
// surface as errors.
func Lower(file *lang.File) (*Module, error) {
	l := &lowerer{b: NewBuilder(), file: file}
	for _, fn := range file.Funcs {
		if err := l.lowerFunc(fn); err != nil {
			return nil, err
		}
	}
	return l.b.Finish()
}

// Compile parses, checks, and lowers FPL source in one step.
func Compile(src string) (*Module, error) {
	file, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := lang.Check(file); err != nil {
		return nil, err
	}
	return Lower(file)
}

// CompileNamed compiles FPL source read from the named file, decorating
// any front-end diagnostic with the filename so errors render as
// file:line:col: msg. Anonymous sources (Compile) keep the historical
// line:col rendering.
func CompileNamed(name, src string) (*Module, error) {
	m, err := Compile(src)
	if err != nil {
		var le *lang.Error
		if errors.As(err, &le) && le.File == "" {
			le.File = name
			return nil, le
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// errfAt builds a typed, position-carrying lowering diagnostic, so
// callers (and CompileNamed) can decorate it with a filename.
func errfAt(pos lang.Pos, format string, args ...any) *lang.Error {
	return &lang.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type scope struct {
	parent *scope
	vars   map[string]Reg
}

func (s *scope) lookup(name string) (Reg, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if r, ok := sc.vars[name]; ok {
			return r, true
		}
	}
	return -1, false
}

// lowerer holds FPL's own lowering state: lexical scopes binding names
// to registers. Everything about IR construction lives in the Builder.
type lowerer struct {
	b    *Builder
	file *lang.File
	sc   *scope
}

func (l *lowerer) lowerFunc(fn *lang.FuncDecl) error {
	l.b.BeginFunc(fn.Name, len(fn.Params), retKindOf(fn.RetType))
	l.sc = &scope{vars: map[string]Reg{}}
	for _, p := range fn.Params {
		l.sc.vars[p.Name] = l.b.NewReg(kindOfType(p.Type))
	}
	if err := l.lowerBlock(fn.Body); err != nil {
		return err
	}
	l.b.EndFunc(fn.Pos)
	return nil
}

func retKindOf(t lang.Type) RetKind {
	switch t {
	case lang.Double:
		return RetF
	case lang.Bool:
		return RetB
	}
	return RetNone
}

func kindOfType(t lang.Type) RegKind {
	if t == lang.Bool {
		return RegB
	}
	return RegF
}

func (l *lowerer) lowerBlock(b *lang.BlockStmt) error {
	l.sc = &scope{parent: l.sc, vars: map[string]Reg{}}
	defer func() { l.sc = l.sc.parent }()
	for _, s := range b.Stmts {
		l.b.Open()
		if err := l.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *lowerer) lowerStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return l.lowerBlock(s)

	case *lang.VarStmt:
		r := l.b.NewReg(kindOfType(s.Type))
		if s.Init != nil {
			v, err := l.lowerExpr(s.Init)
			if err != nil {
				return err
			}
			l.b.Mov(r, v, s.Pos)
		} else if s.Type == lang.Double {
			l.b.ConstF(r, 0, s.Pos)
		} else {
			l.b.ConstB(r, false, s.Pos)
		}
		l.sc.vars[s.Name] = r
		return nil

	case *lang.AssignStmt:
		r, ok := l.sc.lookup(s.Name)
		if !ok {
			return errfAt(s.Pos, "undefined variable %s", s.Name)
		}
		v, err := l.lowerExpr(s.Expr)
		if err != nil {
			return err
		}
		l.b.Mov(r, v, s.Pos)
		return nil

	case *lang.IfStmt:
		cond, err := l.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		var els func() error
		if s.Else != nil {
			els = func() error { return l.lowerStmt(s.Else) }
		}
		return l.b.If(cond, s.Pos, func() error { return l.lowerBlock(s.Then) }, els)

	case *lang.WhileStmt:
		return l.b.Loop(s.Pos,
			func() (Reg, error) { return l.lowerExpr(s.Cond) },
			func() error { return l.lowerBlock(s.Body) },
			nil)

	case *lang.ReturnStmt:
		if s.Expr == nil {
			l.b.Ret(-1, s.Pos)
			return nil
		}
		v, err := l.lowerExpr(s.Expr)
		if err != nil {
			return err
		}
		l.b.Ret(v, s.Pos)
		return nil

	case *lang.AssertStmt:
		v, err := l.lowerExpr(s.Expr)
		if err != nil {
			return err
		}
		l.b.Assert(v, s.Pos, s.Expr.Text())
		return nil

	case *lang.ExprStmt:
		_, err := l.lowerExprOrVoid(s.Expr)
		return err
	}
	return errfAt(s.StartPos(), "unhandled statement %T", s)
}

// lowerExprOrVoid lowers an expression allowing void calls (register -1).
func (l *lowerer) lowerExprOrVoid(e lang.Expr) (Reg, error) {
	if call, ok := e.(*lang.CallExpr); ok && !call.Builtin {
		callee := l.file.Func(call.Name)
		if callee != nil && callee.RetType == lang.Invalid {
			args, err := l.lowerArgs(call.Args)
			if err != nil {
				return -1, err
			}
			l.b.Call(-1, call.Name, args, call.Pos, "")
			return -1, nil
		}
	}
	return l.lowerExpr(e)
}

func (l *lowerer) lowerArgs(args []lang.Expr) ([]Reg, error) {
	var regs []Reg
	for _, a := range args {
		r, err := l.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		regs = append(regs, r)
	}
	return regs, nil
}

func (l *lowerer) lowerExpr(e lang.Expr) (Reg, error) {
	switch e := e.(type) {
	case *lang.NumberLit:
		r := l.b.NewReg(RegF)
		l.b.ConstF(r, e.Val, e.Pos)
		return r, nil

	case *lang.BoolLit:
		r := l.b.NewReg(RegB)
		l.b.ConstB(r, e.Val, e.Pos)
		return r, nil

	case *lang.Ident:
		r, ok := l.sc.lookup(e.Name)
		if !ok {
			return -1, errfAt(e.Pos, "undefined variable %s", e.Name)
		}
		return r, nil

	case *lang.UnaryExpr:
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		if e.Op == lang.MINUS {
			r := l.b.NewReg(RegF)
			l.b.FNeg(r, x, e.Pos)
			return r, nil
		}
		r := l.b.NewReg(RegB)
		l.b.Not(r, x, e.Pos)
		return r, nil

	case *lang.BinaryExpr:
		if e.Op == lang.ANDAND || e.Op == lang.OROR {
			return l.b.ShortCircuit(e.Op == lang.ANDAND, e.Pos,
				func() (Reg, error) { return l.lowerExpr(e.X) },
				func() (Reg, error) { return l.lowerExpr(e.Y) })
		}
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		y, err := l.lowerExpr(e.Y)
		if err != nil {
			return -1, err
		}
		if pred, ok := cmpOps[e.Op]; ok {
			r := l.b.NewReg(RegB)
			l.b.FCmp(r, pred, x, y, e.Pos, e.Pos.String(), e.Text())
			return r, nil
		}
		op, ok := arithOps[e.Op]
		if !ok {
			return -1, errfAt(e.Pos, "bad binary operator %s", e.Op)
		}
		r := l.b.NewReg(RegF)
		l.b.Arith(op, r, x, y, e.Pos, e.Pos.String(), e.Text())
		return r, nil

	case *lang.CallExpr:
		args, err := l.lowerArgs(e.Args)
		if err != nil {
			return -1, err
		}
		if e.Builtin {
			r := l.b.NewReg(RegF)
			l.b.CallBuiltin(r, e.Name, args, e.Pos, e.Pos.String(), e.Text())
			return r, nil
		}
		r := l.b.NewReg(kindOfType(e.Type()))
		l.b.Call(r, e.Name, args, e.Pos, "")
		return r, nil
	}
	return -1, errfAt(e.StartPos(), "unhandled expression %T", e)
}

// cmpOps and arithOps map FPL's comparison and arithmetic operators to
// IR predicates and opcodes.
var (
	cmpOps = map[lang.Kind]fp.CmpOp{
		lang.LT: fp.LT, lang.LE: fp.LE, lang.GT: fp.GT,
		lang.GE: fp.GE, lang.EQ: fp.EQ, lang.NE: fp.NE,
	}
	arithOps = map[lang.Kind]Opcode{
		lang.PLUS: FAdd, lang.MINUS: FSub, lang.STAR: FMul, lang.SLASH: FDiv,
	}
)
