package gofront

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/builtins"
	"repro/internal/fp"
	"repro/internal/ir"
	"repro/internal/lang"
)

// goLowerer lowers one type-checked Go file into an ir.Module through an
// ir.Builder. Variable binding is object-keyed: go/types already
// resolved every identifier to its object, so shadowing and :=
// redeclaration need no scope stack.
type goLowerer struct {
	fset *token.FileSet
	info *types.Info
	b    *ir.Builder
	vars map[types.Object]ir.Reg
}

func (l *goLowerer) lowerFile(file *ast.File) (*ir.Module, error) {
	l.b = ir.NewBuilder()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			switch d.Tok {
			case token.IMPORT, token.CONST:
				// Imports were vetted by the type checker; constants
				// fold at their uses.
			case token.VAR:
				return nil, l.errf(d.Pos(), "package-level variables are outside the analyzable subset (analyzed functions must not read mutable global state)")
			default:
				return nil, l.errf(d.Pos(), "type declarations are outside the analyzable subset")
			}
		case *ast.FuncDecl:
			if err := l.lowerFuncDecl(d); err != nil {
				return nil, err
			}
		}
	}
	mod, err := l.b.Finish()
	if err != nil {
		return nil, err
	}
	if len(mod.Order) == 0 {
		return nil, &Diagnostic{Msg: "source declares no functions"}
	}
	return mod, nil
}

func (l *goLowerer) lowerFuncDecl(fd *ast.FuncDecl) error {
	if fd.Recv != nil {
		return l.errf(fd.Pos(), "methods are outside the analyzable subset")
	}
	if fd.Type.TypeParams != nil {
		return l.errf(fd.Pos(), "generic functions are outside the analyzable subset")
	}
	if fd.Body == nil {
		return l.errf(fd.Pos(), "function %s has no body (assembly and external functions cannot be analyzed)", fd.Name.Name)
	}
	obj, ok := l.info.Defs[fd.Name].(*types.Func)
	if !ok {
		return l.errf(fd.Pos(), "internal: no type object for function %s", fd.Name.Name)
	}
	sig := obj.Type().(*types.Signature)
	if sig.Variadic() {
		return l.errf(fd.Pos(), "variadic functions are outside the analyzable subset")
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if !isFloat64(sig.Params().At(i).Type()) {
			return l.errf(fd.Pos(), "function %s: parameter %s: %s — analyzed functions take only float64 parameters",
				fd.Name.Name, sig.Params().At(i).Name(), subsetTypeMsg(sig.Params().At(i).Type()))
		}
	}
	if sig.Results().Len() != 1 || !isFloat64(sig.Results().At(0).Type()) {
		return l.errf(fd.Pos(), "function %s must return exactly one float64 result", fd.Name.Name)
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if len(field.Names) > 0 {
				return l.errf(fd.Pos(), "named results are outside the analyzable subset")
			}
		}
	}

	l.b.BeginFunc(fd.Name.Name, sig.Params().Len(), ir.RetF)
	l.vars = map[types.Object]ir.Reg{}
	for i := 0; i < sig.Params().Len(); i++ {
		l.vars[sig.Params().At(i)] = l.b.NewReg(ir.RegF)
	}
	// Parameter idents in the AST resolve to objects recorded in
	// info.Defs; map those too (they may differ from sig's objects for
	// blank parameters, and matching both is harmless).
	if fd.Type.Params != nil {
		i := 0
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := l.info.Defs[name]; obj != nil {
					l.vars[obj] = ir.Reg(i)
				}
				i++
			}
		}
	}

	if err := l.lowerBlockStmt(fd.Body); err != nil {
		return err
	}
	// The type checker guarantees all paths return (missing return is a
	// type error), so the epilogue only closes unreachable tails.
	l.b.EndFunc(l.pos(fd.Pos()))
	return nil
}

// --- machinery ---

func (l *goLowerer) pos(p token.Pos) lang.Pos {
	pp := l.fset.Position(p)
	return lang.Pos{Line: pp.Line, Col: pp.Column}
}

// site returns the IR position of p and the "file:line:col" rendering
// that labels the site there.
func (l *goLowerer) site(p token.Pos) (lang.Pos, string) {
	pp := l.fset.Position(p)
	return lang.Pos{Line: pp.Line, Col: pp.Column}, pp.String()
}

func (l *goLowerer) errf(p token.Pos, format string, args ...any) *Diagnostic {
	pp := l.fset.Position(p)
	return &Diagnostic{
		File: pp.Filename,
		Line: pp.Line,
		Col:  pp.Column,
		Msg:  fmt.Sprintf(format, args...),
	}
}

func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Bool || b.Kind() == types.UntypedBool)
}

// subsetTypeMsg names why a type is outside the subset, in terms a user
// can act on.
func subsetTypeMsg(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsString != 0:
			return "strings are outside the analyzable subset"
		case u.Info()&types.IsInteger != 0:
			return "integer types are outside the analyzable subset (use float64 arithmetic)"
		case u.Info()&types.IsComplex != 0:
			return "complex numbers are outside the analyzable subset"
		case u.Kind() == types.Float32:
			return "float32 is outside the analyzable subset (only float64 is modeled)"
		case u.Info()&types.IsBoolean != 0:
			return "bool-typed values are supported only in conditions"
		}
	case *types.Slice:
		return "slices are outside the analyzable subset"
	case *types.Array:
		return "arrays are outside the analyzable subset"
	case *types.Map:
		return "maps are outside the analyzable subset"
	case *types.Chan:
		return "channels are outside the analyzable subset"
	case *types.Pointer:
		return "pointers are outside the analyzable subset"
	case *types.Struct:
		return "structs are outside the analyzable subset"
	case *types.Interface:
		return "interfaces are outside the analyzable subset"
	case *types.Signature:
		return "function values are outside the analyzable subset"
	}
	return fmt.Sprintf("type %s is outside the analyzable subset", t)
}

// --- statements ---

func (l *goLowerer) lowerBlockStmt(b *ast.BlockStmt) error {
	for _, s := range b.List {
		l.b.Open()
		if err := l.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *goLowerer) lowerStmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return l.lowerBlockStmt(s)

	case *ast.EmptyStmt:
		return nil

	case *ast.DeclStmt:
		return l.lowerDeclStmt(s)

	case *ast.AssignStmt:
		return l.lowerAssign(s)

	case *ast.IncDecStmt:
		return l.lowerIncDec(s)

	case *ast.IfStmt:
		return l.lowerIf(s)

	case *ast.ForStmt:
		return l.lowerFor(s)

	case *ast.BranchStmt:
		return l.lowerBranch(s)

	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return l.errf(s.Pos(), "return must carry exactly one float64 value")
		}
		v, err := l.lowerExpr(s.Results[0])
		if err != nil {
			return err
		}
		if l.b.Kind(v) != ir.RegF {
			return l.errf(s.Pos(), "return value must be float64")
		}
		l.b.Ret(v, l.pos(s.Pos()))
		return nil

	case *ast.ExprStmt:
		// An expression statement is necessarily a call; lower it for
		// uniformity and discard the result (subset functions are pure,
		// so this cannot hide effects).
		_, err := l.lowerExpr(s.X)
		return err

	case *ast.GoStmt:
		return l.errf(s.Pos(), "goroutines are outside the analyzable subset")
	case *ast.DeferStmt:
		return l.errf(s.Pos(), "defer is outside the analyzable subset")
	case *ast.SelectStmt:
		return l.errf(s.Pos(), "select is outside the analyzable subset")
	case *ast.SendStmt:
		return l.errf(s.Pos(), "channel sends are outside the analyzable subset")
	case *ast.RangeStmt:
		return l.errf(s.Pos(), "range loops are outside the analyzable subset (use a counted for loop over float64)")
	case *ast.SwitchStmt:
		return l.errf(s.Pos(), "switch is outside the analyzable subset (use if/else chains)")
	case *ast.TypeSwitchStmt:
		return l.errf(s.Pos(), "type switches are outside the analyzable subset")
	case *ast.LabeledStmt:
		return l.errf(s.Pos(), "labeled statements are outside the analyzable subset")
	}
	return l.errf(s.Pos(), "unsupported statement %T", s)
}

func (l *goLowerer) lowerDeclStmt(s *ast.DeclStmt) error {
	d, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return l.errf(s.Pos(), "unsupported declaration %T", s.Decl)
	}
	switch d.Tok {
	case token.CONST:
		return nil // folded at each use
	case token.VAR:
	default:
		return l.errf(d.Pos(), "type declarations are outside the analyzable subset")
	}
	for _, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		if len(vs.Values) != 0 && len(vs.Values) != len(vs.Names) {
			return l.errf(vs.Pos(), "multi-value initialization is outside the analyzable subset")
		}
		for i, name := range vs.Names {
			obj := l.info.Defs[name]
			if obj == nil {
				return l.errf(name.Pos(), "internal: no type object for %s", name.Name)
			}
			var kind ir.RegKind
			switch {
			case isFloat64(obj.Type()):
				kind = ir.RegF
			case isBool(obj.Type()):
				kind = ir.RegB
			default:
				return l.errf(name.Pos(), "variable %s: %s", name.Name, subsetTypeMsg(obj.Type()))
			}
			r := l.b.NewReg(kind)
			pos := l.pos(name.Pos())
			if len(vs.Values) > 0 {
				v, err := l.lowerExpr(vs.Values[i])
				if err != nil {
					return err
				}
				if l.b.Kind(v) != kind {
					return l.errf(vs.Values[i].Pos(), "initializer kind mismatch for %s", name.Name)
				}
				l.b.Mov(r, v, pos)
			} else if kind == ir.RegF {
				l.b.ConstF(r, 0, pos)
			} else {
				l.b.ConstB(r, false, pos)
			}
			if name.Name != "_" {
				l.vars[obj] = r
			}
		}
	}
	return nil
}

// assignTok maps an op-assign token to its IR opcode.
var assignTok = map[token.Token]ir.Opcode{
	token.ADD_ASSIGN: ir.FAdd,
	token.SUB_ASSIGN: ir.FSub,
	token.MUL_ASSIGN: ir.FMul,
	token.QUO_ASSIGN: ir.FDiv,
}

func (l *goLowerer) lowerAssign(s *ast.AssignStmt) error {
	if op, ok := assignTok[s.Tok]; ok {
		// x op= y is one floating-point operation, exactly like the
		// native build: one op site.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return l.errf(s.Pos(), "internal: malformed op-assignment")
		}
		dst, err := l.lvalue(s.Lhs[0])
		if err != nil {
			return err
		}
		if l.b.Kind(dst) != ir.RegF {
			return l.errf(s.Pos(), "%s requires a float64 variable", s.Tok)
		}
		v, err := l.lowerExpr(s.Rhs[0])
		if err != nil {
			return err
		}
		if l.b.Kind(v) != ir.RegF {
			return l.errf(s.Rhs[0].Pos(), "%s requires a float64 operand", s.Tok)
		}
		pos, where := l.site(s.Pos())
		text := fmt.Sprintf("%s %s %s", types.ExprString(s.Lhs[0]), s.Tok, types.ExprString(s.Rhs[0]))
		l.b.Arith(op, dst, dst, v, pos, where, text)
		return nil
	}
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
	case token.REM_ASSIGN:
		return l.errf(s.Pos(), "%% is outside the analyzable subset (use math.Mod)")
	default:
		return l.errf(s.Pos(), "%s is outside the analyzable subset", s.Tok)
	}
	if len(s.Lhs) != len(s.Rhs) {
		return l.errf(s.Pos(), "multi-value assignment is outside the analyzable subset")
	}

	// Go evaluates all right-hand sides before any assignment takes
	// effect; with more than one target, copy values into temporaries
	// first so a, b = b, a works.
	vals := make([]ir.Reg, len(s.Rhs))
	for i, rhs := range s.Rhs {
		v, err := l.lowerExpr(rhs)
		if err != nil {
			return err
		}
		if len(s.Lhs) > 1 {
			t := l.b.NewReg(l.b.Kind(v))
			l.b.Mov(t, v, l.pos(rhs.Pos()))
			v = t
		}
		vals[i] = v
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return l.errf(lhs.Pos(), "assignment target must be a variable (%s)", subsetTypeMsg(l.info.TypeOf(lhs)))
		}
		if id.Name == "_" {
			continue
		}
		pos := l.pos(lhs.Pos())
		if s.Tok == token.DEFINE {
			if obj := l.info.Defs[id]; obj != nil {
				// Fresh declaration: bind a new register of the value's
				// kind.
				r := l.b.NewReg(l.b.Kind(vals[i]))
				l.vars[obj] = r
				l.b.Mov(r, vals[i], pos)
				continue
			}
			// Redeclaration in a := with at least one new name: plain
			// assignment to the existing register.
		}
		dst, err := l.lvalue(id)
		if err != nil {
			return err
		}
		if l.b.Kind(dst) != l.b.Kind(vals[i]) {
			return l.errf(lhs.Pos(), "assignment kind mismatch for %s", id.Name)
		}
		l.b.Mov(dst, vals[i], pos)
	}
	return nil
}

// lvalue resolves an assignable expression to its register.
func (l *goLowerer) lvalue(e ast.Expr) (ir.Reg, error) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return -1, l.errf(e.Pos(), "assignment target must be a variable (%s)", subsetTypeMsg(l.info.TypeOf(e)))
	}
	obj := l.info.Uses[id]
	if obj == nil {
		obj = l.info.Defs[id]
	}
	if obj == nil {
		return -1, l.errf(e.Pos(), "internal: unresolved identifier %s", id.Name)
	}
	r, ok := l.vars[obj]
	if !ok {
		return -1, l.errf(e.Pos(), "cannot assign to %s (not a local float64/bool variable)", id.Name)
	}
	return r, nil
}

func (l *goLowerer) lowerIncDec(s *ast.IncDecStmt) error {
	dst, err := l.lvalue(s.X)
	if err != nil {
		return err
	}
	if l.b.Kind(dst) != ir.RegF {
		return l.errf(s.Pos(), "%s requires a float64 variable", s.Tok)
	}
	op := ir.FAdd
	if s.Tok == token.DEC {
		op = ir.FSub
	}
	one := l.b.NewReg(ir.RegF)
	pos, where := l.site(s.Pos())
	l.b.ConstF(one, 1, pos)
	l.b.Arith(op, dst, dst, one, pos, where, types.ExprString(s.X)+s.Tok.String())
	return nil
}

func (l *goLowerer) lowerCond(e ast.Expr) (ir.Reg, error) {
	c, err := l.lowerExpr(e)
	if err != nil {
		return -1, err
	}
	if l.b.Kind(c) != ir.RegB {
		return -1, l.errf(e.Pos(), "condition must be a bool expression")
	}
	return c, nil
}

func (l *goLowerer) lowerIf(s *ast.IfStmt) error {
	if s.Init != nil {
		if err := l.lowerStmt(s.Init); err != nil {
			return err
		}
	}
	cond, err := l.lowerCond(s.Cond)
	if err != nil {
		return err
	}
	var els func() error
	if s.Else != nil {
		els = func() error { return l.lowerStmt(s.Else) }
	}
	return l.b.If(cond, l.pos(s.Pos()), func() error { return l.lowerBlockStmt(s.Body) }, els)
}

func (l *goLowerer) lowerFor(s *ast.ForStmt) error {
	if s.Init != nil {
		if err := l.lowerStmt(s.Init); err != nil {
			return err
		}
	}
	var cond func() (ir.Reg, error)
	if s.Cond != nil {
		cond = func() (ir.Reg, error) { return l.lowerCond(s.Cond) }
	}
	var post func() error
	if s.Post != nil {
		post = func() error { return l.lowerStmt(s.Post) }
	}
	return l.b.Loop(l.pos(s.Pos()), cond, func() error { return l.lowerBlockStmt(s.Body) }, post)
}

func (l *goLowerer) lowerBranch(s *ast.BranchStmt) error {
	if s.Label != nil {
		return l.errf(s.Pos(), "labeled %s is outside the analyzable subset", s.Tok)
	}
	switch s.Tok {
	case token.BREAK, token.CONTINUE:
		jump := l.b.Break
		if s.Tok == token.CONTINUE {
			jump = l.b.Continue
		}
		if !jump(l.pos(s.Pos())) {
			return l.errf(s.Pos(), "%s outside a for loop", s.Tok)
		}
		return nil
	case token.GOTO:
		return l.errf(s.Pos(), "goto is outside the analyzable subset")
	}
	return l.errf(s.Pos(), "%s is outside the analyzable subset", s.Tok)
}

// --- expressions ---

func (l *goLowerer) lowerExpr(e ast.Expr) (ir.Reg, error) {
	// Constant subexpressions fold first, through go/types'
	// arbitrary-precision evaluator — exactly the semantics gc applies
	// to untyped constants, so 0.25*math.Pi lowers to the same bits the
	// native build computes.
	if tv, ok := l.info.Types[e]; ok && tv.Value != nil {
		switch tv.Value.Kind() {
		case constant.Float, constant.Int:
			f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
			r := l.b.NewReg(ir.RegF)
			l.b.ConstF(r, f, l.pos(e.Pos()))
			return r, nil
		case constant.Bool:
			r := l.b.NewReg(ir.RegB)
			l.b.ConstB(r, constant.BoolVal(tv.Value), l.pos(e.Pos()))
			return r, nil
		default:
			return -1, l.errf(e.Pos(), "%s", subsetTypeMsg(tv.Type))
		}
	}

	switch e := e.(type) {
	case *ast.ParenExpr:
		return l.lowerExpr(e.X)

	case *ast.Ident:
		obj := l.info.Uses[e]
		if obj == nil {
			return -1, l.errf(e.Pos(), "internal: unresolved identifier %s", e.Name)
		}
		if _, ok := obj.(*types.Func); ok {
			return -1, l.errf(e.Pos(), "function values are outside the analyzable subset")
		}
		r, ok := l.vars[obj]
		if !ok {
			return -1, l.errf(e.Pos(), "%s: %s", e.Name, subsetTypeMsg(obj.Type()))
		}
		return r, nil

	case *ast.UnaryExpr:
		return l.lowerUnary(e)

	case *ast.BinaryExpr:
		return l.lowerBinary(e)

	case *ast.CallExpr:
		return l.lowerCall(e)

	case *ast.FuncLit:
		return -1, l.errf(e.Pos(), "function literals are outside the analyzable subset")
	case *ast.CompositeLit:
		return -1, l.errf(e.Pos(), "%s", subsetTypeMsg(l.info.TypeOf(e)))
	case *ast.IndexExpr:
		return -1, l.errf(e.Pos(), "indexing is outside the analyzable subset (%s)", subsetTypeMsg(l.info.TypeOf(e.X)))
	case *ast.SliceExpr:
		return -1, l.errf(e.Pos(), "slicing is outside the analyzable subset")
	case *ast.StarExpr:
		return -1, l.errf(e.Pos(), "pointers are outside the analyzable subset")
	case *ast.TypeAssertExpr:
		return -1, l.errf(e.Pos(), "type assertions are outside the analyzable subset")
	case *ast.SelectorExpr:
		return -1, l.errf(e.Pos(), "selector %s is outside the analyzable subset", types.ExprString(e))
	}
	return -1, l.errf(e.Pos(), "unsupported expression %T", e)
}

func (l *goLowerer) lowerUnary(e *ast.UnaryExpr) (ir.Reg, error) {
	switch e.Op {
	case token.SUB:
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		if l.b.Kind(x) != ir.RegF {
			return -1, l.errf(e.Pos(), "unary minus requires a float64 operand")
		}
		// Sign flips are exact: FNeg, no op site — matching FPL and the
		// paper's LLVM-level site inventory.
		r := l.b.NewReg(ir.RegF)
		l.b.FNeg(r, x, l.pos(e.Pos()))
		return r, nil
	case token.ADD:
		return l.lowerExpr(e.X)
	case token.NOT:
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		if l.b.Kind(x) != ir.RegB {
			return -1, l.errf(e.Pos(), "! requires a bool operand")
		}
		r := l.b.NewReg(ir.RegB)
		l.b.Not(r, x, l.pos(e.Pos()))
		return r, nil
	case token.AND:
		return -1, l.errf(e.Pos(), "pointers are outside the analyzable subset")
	case token.ARROW:
		return -1, l.errf(e.Pos(), "channel receives are outside the analyzable subset")
	}
	return -1, l.errf(e.Pos(), "operator %s is outside the analyzable subset", e.Op)
}

// cmpTok maps Go comparison tokens to IR comparison predicates.
var cmpTok = map[token.Token]fp.CmpOp{
	token.LSS: fp.LT,
	token.LEQ: fp.LE,
	token.GTR: fp.GT,
	token.GEQ: fp.GE,
	token.EQL: fp.EQ,
	token.NEQ: fp.NE,
}

// arithTok maps Go arithmetic tokens to IR opcodes.
var arithTok = map[token.Token]ir.Opcode{
	token.ADD: ir.FAdd,
	token.SUB: ir.FSub,
	token.MUL: ir.FMul,
	token.QUO: ir.FDiv,
}

func (l *goLowerer) lowerBinary(e *ast.BinaryExpr) (ir.Reg, error) {
	switch e.Op {
	case token.LAND, token.LOR:
		// The right operand runs, and is observed, only when the left
		// one does not decide the result — as in native Go.
		return l.b.ShortCircuit(e.Op == token.LAND, l.pos(e.Pos()),
			func() (ir.Reg, error) { return l.lowerCond(e.X) },
			func() (ir.Reg, error) { return l.lowerCond(e.Y) })
	}
	if pred, ok := cmpTok[e.Op]; ok {
		if !isFloat64(l.info.TypeOf(e.X)) || !isFloat64(l.info.TypeOf(e.Y)) {
			return -1, l.errf(e.Pos(), "comparison of non-float64 values: %s", subsetTypeMsg(l.info.TypeOf(e.X)))
		}
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		y, err := l.lowerExpr(e.Y)
		if err != nil {
			return -1, err
		}
		r := l.b.NewReg(ir.RegB)
		pos, where := l.site(e.Pos())
		l.b.FCmp(r, pred, x, y, pos, where, types.ExprString(e))
		return r, nil
	}
	if op, ok := arithTok[e.Op]; ok {
		if !isFloat64(l.info.TypeOf(e)) {
			return -1, l.errf(e.Pos(), "%s", subsetTypeMsg(l.info.TypeOf(e)))
		}
		x, err := l.lowerExpr(e.X)
		if err != nil {
			return -1, err
		}
		y, err := l.lowerExpr(e.Y)
		if err != nil {
			return -1, err
		}
		r := l.b.NewReg(ir.RegF)
		pos, where := l.site(e.Pos())
		l.b.Arith(op, r, x, y, pos, where, types.ExprString(e))
		return r, nil
	}
	if e.Op == token.REM {
		return -1, l.errf(e.Pos(), "%% is outside the analyzable subset (use math.Mod)")
	}
	return -1, l.errf(e.Pos(), "operator %s is outside the analyzable subset", e.Op)
}

func (l *goLowerer) lowerCall(e *ast.CallExpr) (ir.Reg, error) {
	// Conversions: float64(x) on a float64 is the identity; anything
	// else leaves the subset.
	if tv, ok := l.info.Types[e.Fun]; ok && tv.IsType() {
		if !isFloat64(tv.Type) {
			return -1, l.errf(e.Pos(), "conversion to %s is outside the analyzable subset", tv.Type)
		}
		if len(e.Args) != 1 || !isFloat64(l.info.TypeOf(e.Args[0])) {
			return -1, l.errf(e.Pos(), "conversion from %s is outside the analyzable subset", l.info.TypeOf(e.Args[0]))
		}
		return l.lowerExpr(e.Args[0])
	}

	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		obj := l.info.Uses[fun]
		if _, ok := obj.(*types.Builtin); ok {
			return -1, l.errf(e.Pos(), "builtin %s is outside the analyzable subset", fun.Name)
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return -1, l.errf(e.Pos(), "function values are outside the analyzable subset")
		}
		args, err := l.lowerArgs(e.Args)
		if err != nil {
			return -1, err
		}
		r := l.b.NewReg(ir.RegF)
		l.b.Call(r, fn.Name(), args, l.pos(e.Pos()), types.ExprString(e))
		return r, nil

	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return -1, l.errf(e.Pos(), "method calls are outside the analyzable subset")
		}
		if _, isPkg := l.info.Uses[pkg].(*types.PkgName); !isPkg {
			return -1, l.errf(e.Pos(), "method calls are outside the analyzable subset")
		}
		builtin, ok := mathFuncs[fun.Sel.Name]
		if !ok {
			// Unreachable in practice: the synthetic math package only
			// declares supported names, so the type checker rejects the
			// rest first.
			return -1, l.errf(e.Pos(), "math.%s is not supported by the frontend", fun.Sel.Name)
		}
		args, err := l.lowerArgs(e.Args)
		if err != nil {
			return -1, err
		}
		if arity := builtins.Arity(builtin); len(args) != arity {
			return -1, l.errf(e.Pos(), "math.%s takes %d arguments", fun.Sel.Name, arity)
		}
		r := l.b.NewReg(ir.RegF)
		pos, where := l.site(e.Pos())
		l.b.CallBuiltin(r, builtin, args, pos, where, types.ExprString(e))
		return r, nil
	}
	return -1, l.errf(e.Pos(), "function values are outside the analyzable subset")
}

func (l *goLowerer) lowerArgs(args []ast.Expr) ([]ir.Reg, error) {
	var regs []ir.Reg
	for _, a := range args {
		r, err := l.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		if l.b.Kind(r) != ir.RegF {
			return nil, l.errf(a.Pos(), "call arguments must be float64")
		}
		regs = append(regs, r)
	}
	return regs, nil
}
