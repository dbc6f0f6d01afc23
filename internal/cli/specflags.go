package cli

// This file implements SpecFlags, the registry-driven analysis flags:
// which flags an analysis exposes is derived from its Knobs
// declaration, and parsing them yields a uniform analysis.Spec plus the
// loaded Input. RunTool is the text mode of `fpanalyze <analysis>`.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/opt"
	"repro/internal/sat"
)

// SpecFlags binds the shared analysis flags of one tool to a FlagSet.
type SpecFlags struct {
	tool string
	a    analysis.Analysis
	spec analysis.Spec

	builtin string
	fn      string
	bounds  string
	path    string
	lang    string
	// Timeout is the -timeout wall-clock budget (0 = none). Context
	// cancellation lands within one weak-distance evaluation, so the
	// tool renders whatever partial report the analysis had at expiry.
	Timeout time.Duration
	// Stdin substitutes for os.Stdin when reading "-" formulas (tests).
	Stdin io.Reader
}

// NewSpecFlags registers the analysis' flags — exactly the knobs it
// declares — on the FlagSet, with the analysis' spec defaults.
func NewSpecFlags(fs *flag.FlagSet, tool string, a analysis.Analysis) *SpecFlags {
	k := a.Knobs()
	def := a.DefaultSpec()
	sf := &SpecFlags{tool: tool, a: a, spec: def}
	if k.Program {
		fs.StringVar(&sf.builtin, "builtin", "", "built-in program name ("+strings.Join(BuiltinNames(), ", ")+")")
		fs.StringVar(&sf.fn, "func", "", "function to analyze (FPL files)")
		fs.StringVar(&sf.lang, "lang", "", "source language: fpl or go (default: by file extension, .go = go)")
	}
	fs.Int64Var(&sf.spec.Seed, "seed", def.Seed, "random seed")
	if k.Starts {
		fs.IntVar(&sf.spec.Starts, "starts", def.Starts, "minimization restarts")
	}
	evalsHelp := "weak-distance evaluations per restart"
	if k.Stall || k.Rounds {
		evalsHelp = "evaluations per minimization round"
	}
	if def.Evals == 0 {
		evalsHelp += " (0 = default)"
	}
	fs.IntVar(&sf.spec.Evals, "evals", def.Evals, evalsHelp)
	if k.Stall {
		fs.IntVar(&sf.spec.Stall, "stall", def.Stall, "give up after this many rounds without progress")
	}
	if k.Rounds {
		fs.IntVar(&sf.spec.Rounds, "rounds", def.Rounds, "max rounds (0 = 3x ops)")
	}
	fs.StringVar(&sf.bounds, "bounds", "", "search bounds lo:hi[,lo:hi...]")
	if k.ULP {
		fs.BoolVar(&sf.spec.ULP, "ulp", def.ULP, "use ULP branch distances")
	}
	if k.HighPrecision {
		fs.BoolVar(&sf.spec.HighPrecision, "hp", def.HighPrecision,
			"accumulate multiplicative distances in high precision (no spurious underflow zeros)")
	}
	if k.RealDist {
		fs.BoolVar(&sf.spec.RealDist, "real", def.RealDist, "use real-valued |l-r| atom distances instead of ULP")
	}
	if k.Path {
		fs.StringVar(&sf.path, "path", "", "target path, e.g. 0:t,1:f")
	}
	be := def.Backend
	if be == "" {
		be = "basinhopping"
	}
	fs.StringVar(&sf.spec.Backend, "backend", be, "MO backend ("+strings.Join(opt.BackendNames(), ", ")+")")
	fs.IntVar(&sf.spec.Workers, "workers", def.Workers, "parallelism (0 = all CPUs, at most 256)")
	fs.DurationVar(&sf.Timeout, "timeout", 0,
		"wall-clock budget; on expiry the partial report is rendered (0 = none)")
	return sf
}

// Context returns the run context implied by the parsed flags: a
// -timeout deadline over the parent, or the parent itself. The returned
// cancel func must always be called.
func (sf *SpecFlags) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if sf.Timeout > 0 {
		return context.WithTimeout(parent, sf.Timeout)
	}
	return context.WithCancel(parent)
}

// Resolve finalizes the spec from the parsed flags and positional
// arguments (the FPL source file, or the formula for formula-based
// analyses) and loads the analysis input.
func (sf *SpecFlags) Resolve(args []string) (analysis.Input, analysis.Spec, error) {
	var in analysis.Input
	k := sf.a.Knobs()

	dim := 0
	if k.Formula {
		if len(args) != 1 {
			return in, sf.spec, fmt.Errorf("usage: %s [flags] 'formula' (or - for stdin)", sf.tool)
		}
		src := args[0]
		if src == "-" {
			r := sf.Stdin
			if r == nil {
				r = os.Stdin
			}
			data, err := io.ReadAll(r)
			if err != nil {
				return in, sf.spec, err
			}
			src = strings.TrimSpace(string(data))
		}
		sf.spec.Formula = src
		f, _, err := sat.Parse(src)
		if err != nil {
			return in, sf.spec, err
		}
		dim = f.Dim()
	}
	if k.Program {
		file := ""
		if len(args) > 0 {
			file = args[0]
		}
		p, err := Resolve(sf.builtin, file, sf.lang, sf.fn)
		if err != nil {
			return in, sf.spec, err
		}
		in.Program = p
		in.SF = SFForBuiltin(sf.builtin)
		dim = p.Dim
	}

	if k.Path {
		target, err := ParsePath(sf.path)
		if err != nil {
			return in, sf.spec, err
		}
		sf.spec.Path = target
	}

	bs, err := ParseBounds(sf.bounds, dim)
	if err != nil {
		return in, sf.spec, err
	}
	sf.spec.Bounds = bs

	return in, sf.spec, nil
}

// RunTool runs one analysis from the command line: register the
// registry-derived flags, parse, load, run, render the report as text.
// tool prefixes diagnostics. It returns the process exit code (0 ok,
// 1 error, 2 negative analysis outcome).
func RunTool(tool, analysisName string, args []string, stdout, stderr io.Writer) int {
	a, err := analysis.Lookup(analysisName)
	if err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		return 1
	}
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := NewSpecFlags(fs, tool, a)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // the historical ExitOnError behavior of -h
		}
		return 2
	}
	in, spec, err := sf.Resolve(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		return 1
	}
	ctx, cancel := sf.Context(context.Background())
	defer cancel()
	rep, err := a.Run(ctx, in, spec)
	if err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		return 1
	}
	rep.Render(stdout, in)
	// The report's own flag, not ctx.Err(): a deadline that fires after
	// the analysis completed must not mislabel a complete report.
	if rep.Interrupted() {
		fmt.Fprintf(stderr, "%s: timeout after %v; partial results above\n", tool, sf.Timeout)
	}
	if rep.Failed() {
		return 2
	}
	return 0
}
