package lang

import "repro/internal/builtins"

// Check type-checks the file in place, resolving identifier and call
// types. It returns the first error found.
func Check(f *File) error {
	c := &checker{file: f, funcs: map[string]*FuncDecl{}}
	for _, fn := range f.Funcs {
		if _, dup := c.funcs[fn.Name]; dup {
			return errf(fn.Pos, "function %s redeclared", fn.Name)
		}
		if builtins.Arity(fn.Name) > 0 {
			return errf(fn.Pos, "function %s shadows a builtin", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	file  *File
	funcs map[string]*FuncDecl
	// scopes is a stack of lexical scopes mapping names to types.
	scopes []map[string]Type
	cur    *FuncDecl
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]Type{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos Pos, name string, t Type) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(pos, "%s redeclared in this scope", name)
	}
	top[name] = t
	return nil
}

func (c *checker) lookup(name string) (Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return Invalid, false
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.cur = fn
	c.scopes = nil
	c.push()
	defer c.pop()
	for _, p := range fn.Params {
		if err := c.declare(p.Pos, p.Name, p.Type); err != nil {
			return err
		}
	}
	if err := c.checkBlock(fn.Body); err != nil {
		return err
	}
	if fn.RetType != Invalid && !blockReturns(fn.Body) {
		return errf(fn.Pos, "function %s: missing return on some path", fn.Name)
	}
	return nil
}

// blockReturns conservatively decides whether every execution of the
// block ends in a return.
func blockReturns(b *BlockStmt) bool {
	for _, s := range b.Stmts {
		if stmtReturns(s) {
			return true
		}
	}
	return false
}

func stmtReturns(s Stmt) bool {
	switch s := s.(type) {
	case *ReturnStmt:
		return true
	case *BlockStmt:
		return blockReturns(s)
	case *IfStmt:
		if s.Else == nil {
			return false
		}
		return blockReturns(s.Then) && stmtReturns(s.Else)
	}
	return false
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return c.checkBlock(s)
	case *VarStmt:
		if s.Init != nil {
			t, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if t != s.Type {
				return errf(s.Pos, "cannot initialize %s %s with %s", s.Type, s.Name, t)
			}
		}
		return c.declare(s.Pos, s.Name, s.Type)
	case *AssignStmt:
		vt, ok := c.lookup(s.Name)
		if !ok {
			return errf(s.Pos, "undefined variable %s", s.Name)
		}
		et, err := c.checkExpr(s.Expr)
		if err != nil {
			return err
		}
		if et != vt {
			return errf(s.Pos, "cannot assign %s to %s %s", et, vt, s.Name)
		}
		return nil
	case *IfStmt:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t != Bool {
			return errf(s.Cond.StartPos(), "if condition must be bool, found %s", t)
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t != Bool {
			return errf(s.Cond.StartPos(), "while condition must be bool, found %s", t)
		}
		return c.checkBlock(s.Body)
	case *ReturnStmt:
		if c.cur.RetType == Invalid {
			if s.Expr != nil {
				return errf(s.Pos, "function %s returns no value", c.cur.Name)
			}
			return nil
		}
		if s.Expr == nil {
			return errf(s.Pos, "function %s must return %s", c.cur.Name, c.cur.RetType)
		}
		t, err := c.checkExpr(s.Expr)
		if err != nil {
			return err
		}
		if t != c.cur.RetType {
			return errf(s.Pos, "cannot return %s from function returning %s", t, c.cur.RetType)
		}
		return nil
	case *AssertStmt:
		t, err := c.checkExpr(s.Expr)
		if err != nil {
			return err
		}
		if t != Bool {
			return errf(s.Pos, "assert condition must be bool, found %s", t)
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExpr(s.Expr)
		return err
	}
	return errf(s.StartPos(), "unhandled statement")
}

func (c *checker) checkExpr(e Expr) (Type, error) {
	switch e := e.(type) {
	case *NumberLit:
		return Double, nil
	case *BoolLit:
		return Bool, nil
	case *Ident:
		t, ok := c.lookup(e.Name)
		if !ok {
			return Invalid, errf(e.Pos, "undefined variable %s", e.Name)
		}
		e.typ = t
		return t, nil
	case *UnaryExpr:
		t, err := c.checkExpr(e.X)
		if err != nil {
			return Invalid, err
		}
		switch e.Op {
		case MINUS:
			if t != Double {
				return Invalid, errf(e.Pos, "operator - requires double, found %s", t)
			}
			e.typ = Double
		case NOT:
			if t != Bool {
				return Invalid, errf(e.Pos, "operator ! requires bool, found %s", t)
			}
			e.typ = Bool
		default:
			return Invalid, errf(e.Pos, "bad unary operator %s", e.Op)
		}
		return e.typ, nil
	case *BinaryExpr:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return Invalid, err
		}
		yt, err := c.checkExpr(e.Y)
		if err != nil {
			return Invalid, err
		}
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH:
			if xt != Double || yt != Double {
				return Invalid, errf(e.Pos, "operator %s requires double operands, found %s and %s", e.Op, xt, yt)
			}
			e.typ = Double
		case LT, LE, GT, GE, EQ, NE:
			if xt != Double || yt != Double {
				return Invalid, errf(e.Pos, "comparison %s requires double operands, found %s and %s", e.Op, xt, yt)
			}
			e.typ = Bool
		case ANDAND, OROR:
			if xt != Bool || yt != Bool {
				return Invalid, errf(e.Pos, "operator %s requires bool operands, found %s and %s", e.Op, xt, yt)
			}
			e.typ = Bool
		default:
			return Invalid, errf(e.Pos, "bad binary operator %s", e.Op)
		}
		return e.typ, nil
	case *CallExpr:
		if arity := builtins.Arity(e.Name); arity > 0 {
			e.Builtin = true
			if len(e.Args) != arity {
				return Invalid, errf(e.Pos, "builtin %s takes %d argument(s), found %d", e.Name, arity, len(e.Args))
			}
			for _, a := range e.Args {
				t, err := c.checkExpr(a)
				if err != nil {
					return Invalid, err
				}
				if t != Double {
					return Invalid, errf(a.StartPos(), "builtin %s requires double arguments, found %s", e.Name, t)
				}
			}
			e.typ = Double
			return Double, nil
		}
		fn, ok := c.funcs[e.Name]
		if !ok {
			return Invalid, errf(e.Pos, "undefined function %s", e.Name)
		}
		if len(e.Args) != len(fn.Params) {
			return Invalid, errf(e.Pos, "function %s takes %d argument(s), found %d", e.Name, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			t, err := c.checkExpr(a)
			if err != nil {
				return Invalid, err
			}
			if t != fn.Params[i].Type {
				return Invalid, errf(a.StartPos(), "argument %d of %s: expected %s, found %s", i+1, e.Name, fn.Params[i].Type, t)
			}
		}
		if fn.RetType == Invalid {
			e.typ = Invalid // void call: only legal as a statement
			return Invalid, nil
		}
		e.typ = fn.RetType
		return e.typ, nil
	}
	return Invalid, errf(e.StartPos(), "unhandled expression")
}
