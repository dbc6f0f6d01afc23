// Command fpanalyze is the command-line front end of the analysis
// registry: every registered analysis — boundary values, coverage,
// overflow, reachability, satisfiability, NaN/domain errors, and
// whatever is registered next — is reachable by name through this one
// tool, in single or batch mode.
//
// Usage:
//
//	fpanalyze list
//	fpanalyze <analysis> [flags] [prog.fpl|prog.go]  # flags derived from the analysis' knobs
//	fpanalyze <analysis> -json ...                   # JSON result instead of text
//	fpanalyze batch [-jobs N] jobs.json              # run a JSON job list, NDJSON out
//	fpanalyze gslcorpus [-list]                      # the lifted GSL corpus as Go source
//
// Examples:
//
//	fpanalyze bva -builtin fig2 -bounds -100:100
//	fpanalyze nan -func prog -evals 2000 prog.fpl
//	fpanalyze batch - <<'EOF'
//	[{"builtin": "fig2", "spec": {"analysis": "coverage", "seed": 1}}]
//	EOF
//
// Every analysis takes -workers (0 = all CPUs, 1 = one worker); it never
// changes a report, and values above 256 are refused. FPL and Go
// programs always run on the compiled VM, one input at a time, and the
// portfolio backend's plateau window is fixed at 400 × dim evaluations
// and 1% decay.
//
// Analysis names accept the registry's aliases, among them the names of
// the former per-analysis tools: `fpanalyze fpbva ARGS` (likewise
// coverme, fpod, fpreach, and xsat) takes the same arguments and prints
// the same report those tools did.
//
// The implementation lives in internal/pipeline (FPAnalyzeMain). Golden
// tests lock its JSON and NDJSON output there and its text reports in
// internal/cli.
package main

import (
	"os"

	"repro/internal/pipeline"
)

func main() {
	os.Exit(pipeline.FPAnalyzeMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
