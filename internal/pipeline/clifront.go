package pipeline

// This file is the whole body of the fpanalyze command, hosted here —
// beside the pipeline it drives — so the tool's text, JSON and NDJSON
// surfaces are golden-testable in-process. cmd/fpanalyze is a thin
// wrapper over FPAnalyzeMain.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/gsl/lift"
)

// FPAnalyzeMain runs the fpanalyze command line: `list`, `batch`, or a
// registered analysis name (or alias) with the shared registry-driven
// flags (plus -json for the pipeline's wire shape instead of the text
// report). It returns the process exit code: 0 ok, 1 error, 2 negative
// analysis outcome.
func FPAnalyzeMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fpanalyzeUsage(stderr)
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list", "-list", "--list":
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name(), a.Describe())
		}
		return 0
	case "batch":
		return fpanalyzeBatch(rest, stdin, stdout, stderr)
	case "gslcorpus":
		return fpanalyzeGSLCorpus(rest, stdout, stderr)
	case "help", "-h", "-help", "--help":
		fpanalyzeUsage(stdout)
		return 0
	default:
		return fpanalyzeRun(sub, rest, stdin, stdout, stderr)
	}
}

func fpanalyzeUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: fpanalyze list | batch [-jobs N] <jobs.json|-> | gslcorpus [-list] | <analysis> [flags] [prog.fpl|prog.go]")
	fmt.Fprintln(w, "registered analyses:", analysis.Names())
}

// fpanalyzeGSLCorpus emits the lifted GSL corpus: the combined Go
// source every analysis can run on via `-lang go` (default), or with
// -list the corpus function names, one per line. CI smokes the Go
// frontend by dumping the corpus to a file and analyzing it.
func fpanalyzeGSLCorpus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpanalyze gslcorpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the corpus function names instead of the source")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "fpanalyze gslcorpus: no positional arguments expected")
		return 2
	}
	if *list {
		for _, name := range lift.FuncNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	io.WriteString(stdout, lift.CombinedSource())
	return 0
}

// fpanalyzeRun executes one analysis with the shared registry-driven
// flags. The -json flag swaps the text report for the pipeline's JSON
// result shape.
func fpanalyzeRun(name string, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	a, err := analysis.Lookup(name)
	if err != nil {
		fmt.Fprintln(stderr, "fpanalyze:", err)
		fpanalyzeUsage(stderr)
		return 1
	}
	asJSON := false
	filtered := args[:0:0]
	for _, arg := range args {
		if arg == "-json" || arg == "--json" {
			asJSON = true
			continue
		}
		filtered = append(filtered, arg)
	}
	if !asJSON {
		return cli.RunTool("fpanalyze", a.Name(), filtered, stdout, stderr)
	}

	fs := flag.NewFlagSet("fpanalyze "+a.Name(), flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := cli.NewSpecFlags(fs, "fpanalyze", a)
	sf.Stdin = stdin
	if err := fs.Parse(filtered); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	in, spec, err := sf.Resolve(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fpanalyze:", err)
		return 1
	}
	ctx, cancel := sf.Context(context.Background())
	defer cancel()
	res := JobResult{Analysis: a.Name()}
	if in.Program != nil {
		res.Program = in.Program.Name
	}
	rep, err := a.Run(ctx, in, spec)
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Report = rep
		res.Summary = rep.Summary()
		res.Failed = rep.Failed()
		res.Canceled = rep.Interrupted()
	}
	stdout.Write(MarshalResult(res))
	fmt.Fprintln(stdout)
	switch {
	case res.Error != "":
		return 1
	case res.Failed:
		return 2
	}
	return 0
}

// fpanalyzeBatch runs a JSON job list through the pipeline, streaming
// NDJSON results in job order.
func fpanalyzeBatch(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpanalyze batch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobsN := fs.Int("jobs", 0, "concurrent jobs (0 = all CPUs); never changes results")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole batch (0 = none)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "fpanalyze batch: want exactly one jobs file (or - for stdin)")
		return 2
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "fpanalyze batch:", err)
		return 1
	}
	var jobs []Job
	if err := json.Unmarshal(data, &jobs); err != nil {
		fmt.Fprintln(stderr, "fpanalyze batch: bad job list:", err)
		return 1
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	code := 0
	pl := New(*jobsN)
	pl.Stream(ctx, jobs, func(r JobResult) {
		stdout.Write(MarshalResult(r))
		fmt.Fprintln(stdout)
		if r.Error != "" {
			code = 1
		}
	})
	return code
}
