package lang

import "strings"

// Format renders a parsed file back to canonical FPL source. The output
// is a fixed point of Parse∘Format: formatting, re-parsing, and
// formatting again yields byte-identical text. That property is what
// the parse→print→parse fuzz target checks, and what lets the program
// shrinker (internal/fuzz) round-trip candidate reductions through the
// parser after every AST edit.
//
// Compound subexpressions are always parenthesized, so the rendering
// never depends on printing precedence correctly — a formatted program
// parses to the same tree structurally regardless of operator nesting.
func Format(f *File) string {
	var p printer
	for i, fn := range f.Funcs {
		if i > 0 {
			p.sb.WriteByte('\n')
		}
		p.funcDecl(fn)
	}
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(s string) {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
	p.sb.WriteString(s)
	p.sb.WriteByte('\n')
}

func (p *printer) funcDecl(fn *FuncDecl) {
	var sb strings.Builder
	sb.WriteString("func ")
	sb.WriteString(fn.Name)
	sb.WriteByte('(')
	for i, par := range fn.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(par.Name)
		sb.WriteByte(' ')
		sb.WriteString(par.Type.String())
	}
	sb.WriteByte(')')
	if fn.RetType != Invalid {
		sb.WriteByte(' ')
		sb.WriteString(fn.RetType.String())
	}
	sb.WriteString(" {")
	p.line(sb.String())
	p.indent++
	for _, s := range fn.Body.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		p.line("{")
		p.indent++
		for _, in := range s.Stmts {
			p.stmt(in)
		}
		p.indent--
		p.line("}")
	case *VarStmt:
		if s.Init != nil {
			p.line("var " + s.Name + " " + s.Type.String() + " = " + exprString(s.Init) + ";")
		} else {
			p.line("var " + s.Name + " " + s.Type.String() + ";")
		}
	case *AssignStmt:
		p.line(s.Name + " = " + exprString(s.Expr) + ";")
	case *IfStmt:
		p.ifStmt(s, "")
	case *WhileStmt:
		p.line("while (" + exprString(s.Cond) + ") {")
		p.indent++
		for _, in := range s.Body.Stmts {
			p.stmt(in)
		}
		p.indent--
		p.line("}")
	case *ReturnStmt:
		if s.Expr != nil {
			p.line("return " + exprString(s.Expr) + ";")
		} else {
			p.line("return;")
		}
	case *AssertStmt:
		p.line("assert(" + exprString(s.Expr) + ");")
	case *ExprStmt:
		p.line(exprString(s.Expr) + ";")
	}
}

// ifStmt prints an if statement, folding `else { if ... }` chains into
// `else if` exactly as the parser produces them.
func (p *printer) ifStmt(s *IfStmt, prefix string) {
	p.line(prefix + "if (" + exprString(s.Cond) + ") {")
	p.indent++
	for _, in := range s.Then.Stmts {
		p.stmt(in)
	}
	p.indent--
	switch els := s.Else.(type) {
	case nil:
		p.line("}")
	case *IfStmt:
		p.ifStmt(els, "} else ")
	case *BlockStmt:
		p.line("} else {")
		p.indent++
		for _, in := range els.Stmts {
			p.stmt(in)
		}
		p.indent--
		p.line("}")
	}
}

func exprString(e Expr) string {
	var p printer
	p.expr(e)
	return p.sb.String()
}

// expr writes the canonical rendering: literals and identifiers bare,
// every unary and binary node parenthesized.
func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *NumberLit:
		p.sb.WriteString(e.Lit)
	case *BoolLit:
		if e.Val {
			p.sb.WriteString("true")
		} else {
			p.sb.WriteString("false")
		}
	case *Ident:
		p.sb.WriteString(e.Name)
	case *UnaryExpr:
		p.sb.WriteByte('(')
		if e.Op == NOT {
			p.sb.WriteByte('!')
		} else {
			p.sb.WriteByte('-')
		}
		p.expr(e.X)
		p.sb.WriteByte(')')
	case *BinaryExpr:
		p.sb.WriteByte('(')
		p.expr(e.X)
		p.sb.WriteByte(' ')
		p.sb.WriteString(e.Op.String())
		p.sb.WriteByte(' ')
		p.expr(e.Y)
		p.sb.WriteByte(')')
	case *CallExpr:
		p.sb.WriteString(e.Name)
		p.sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(a)
		}
		p.sb.WriteByte(')')
	}
}
