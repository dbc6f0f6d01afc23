// Package gofront is the Go frontend of the analysis stack: it parses
// real Go source with go/parser, type-checks it with go/types, and
// lowers a numeric subset — float64 arithmetic and comparisons, if/for
// control flow, intra-unit calls, and math.* calls mapped onto
// internal/builtins — into the same ir.Module that FPL programs compile
// to. Everything downstream (both execution engines, all six analyses,
// the pipeline cache, /v1, the cluster coordinator) works on lifted Go
// programs unchanged.
//
// Anything outside the subset is rejected with a typed, position-
// carrying Diagnostic (goroutines, channels, strings, slices, maps,
// pointers, structs, integers, ...), so pointing an analysis at
// unsupported code fails with file:line:col precision instead of a
// misleading result.
//
// Bit-identity with natively compiled Go is a design invariant, pinned
// by the differential oracle in internal/gsl/lift: constant
// subexpressions are folded through go/types' arbitrary-precision
// constant evaluator (exactly gc's semantics), every residual float64
// operation lowers to exactly one IR instruction in source evaluation
// order, and math.* calls resolve to the same math functions the native
// build calls.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/ir"
)

// Lang names a program source language accepted by the pipeline.
type Lang string

// The registered program languages.
const (
	// LangFPL is the paper's small C-like floating-point language
	// (internal/lang) — the default.
	LangFPL Lang = "fpl"
	// LangGo is the numeric Go subset lifted by this package.
	LangGo Lang = "go"
)

// ParseLang resolves a language name from a -lang flag or a /v1 "lang"
// field. Empty selects FPL, the historical default.
func ParseLang(name string) (Lang, error) {
	switch strings.ToLower(name) {
	case "", "fpl":
		return LangFPL, nil
	case "go", "golang":
		return LangGo, nil
	}
	return LangFPL, fmt.Errorf("unknown language %q (want fpl or go)", name)
}

// String returns the canonical spelling of the language.
func (l Lang) String() string {
	if l == LangGo {
		return "go"
	}
	return "fpl"
}

// DetectLang infers the language of a source file from its extension:
// ".go" selects the Go frontend, anything else FPL.
func DetectLang(path string) Lang {
	if filepath.Ext(path) == ".go" {
		return LangGo
	}
	return LangFPL
}

// CompileSource compiles source in the named language into an IR
// module: the single entry point the CLI loaders and the pipeline
// module cache dispatch through. filename decorates diagnostics
// (file:line:col); empty keeps the anonymous line:col rendering used
// for inline /v1 sources.
func CompileSource(lg Lang, filename, src string) (*ir.Module, error) {
	if lg == LangGo {
		return Compile(filename, src)
	}
	if filename == "" {
		return ir.Compile(src)
	}
	return ir.CompileNamed(filename, src)
}

// Compile parses, type-checks, and lowers Go source into an IR module.
// Every function in the file is lifted (declaration order preserved,
// like FPL). Errors are *Diagnostic or DiagnosticList values carrying
// file:line:col positions.
func Compile(filename, src string) (*ir.Module, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, parseDiagnostics(err)
	}

	var diags DiagnosticList
	conf := types.Config{
		Importer: subsetImporter{},
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				p := te.Fset.Position(te.Pos)
				diags = append(diags, &Diagnostic{
					File: p.Filename, Line: p.Line, Col: p.Column, Msg: te.Msg,
				})
				return
			}
			diags = append(diags, &Diagnostic{Msg: err.Error()})
		},
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	_, err = conf.Check(file.Name.Name, fset, []*ast.File{file}, info)
	if len(diags) > 0 {
		return nil, diags
	}
	if err != nil {
		return nil, &Diagnostic{Msg: err.Error()}
	}

	l := &goLowerer{fset: fset, info: info}
	return l.lowerFile(file)
}
