// Command fpfuzz is the generative fuzzing front end: it drives
// random, guaranteed-well-typed FPL programs (internal/fplgen) through
// the three differential-oracle layers of internal/fuzz — engine
// differential, backend differential, and finding replay — with the
// analysis work batched through the internal/pipeline worker pool.
//
// Usage:
//
//	fpfuzz generate -n N [-seed S] [-dims D] [-o DIR]   # emit corpus programs
//	fpfuzz run [-n N] [-seed S] [flags]                 # run a campaign; exit 1 on violations
//	fpfuzz shrink [-inject-div] [flags] [prog.fpl]      # minimize a failing program
//
// `run` is the CI gate: `fpfuzz run -n 500 -seed 1` must complete with
// zero oracle violations across both engines, every registered backend,
// and every registered analysis.
//
// `shrink` minimizes a failing program to a committable reproducer. By
// default the failure predicate is the engine-differential oracle on
// the given program; -inject-div installs the synthetic
// division-divergence fault (the VM result is perturbed whenever the
// source contains a division) and, when no file is given, hunts the
// generated stream for a failing program first — the self-test
// demonstrating that the oracle and shrinker actually catch engine
// divergences.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fuzz"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	sub, args := os.Args[1], os.Args[2:]
	switch sub {
	case "generate":
		os.Exit(generate(args))
	case "run":
		os.Exit(run(args))
	case "crash":
		os.Exit(crash(args))
	case "cluster":
		os.Exit(clusterCmd(args))
	case "shrink":
		os.Exit(shrink(args))
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "fpfuzz: unknown subcommand %q\n", sub)
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprintln(w, "usage: fpfuzz generate|run|crash|cluster|shrink [flags]")
	fmt.Fprintln(w, "  generate -n N [-seed S] [-dims D] [-o DIR]  emit corpus programs")
	fmt.Fprintln(w, "  run [-n N] [-seed S] [-evals E] [-workers W] [-backends a,b] [-analyses x,y]")
	fmt.Fprintln(w, "      [-layers engine,backend,replay] [-recheck] [-max-violations M] [-v]")
	fmt.Fprintln(w, "  crash [-rounds R] [-seed S] [-programs P] [-panic-jobs N] [-fault-prob F] [-selftest] [-v]")
	fmt.Fprintln(w, "  cluster [-workers W] [-seed S] [-programs P] [-evals E] [-selftest] [-v]")
	fmt.Fprintln(w, "  shrink [-inject-div] [-seed S] [-index I] [prog.fpl]")
}

func generate(args []string) int {
	fs := flag.NewFlagSet("fpfuzz generate", flag.ContinueOnError)
	n := fs.Int("n", 10, "programs to generate")
	seed := fs.Int64("seed", 1, "campaign seed")
	dims := fs.Int("dims", 3, "cycle entry arity over 1..dims")
	out := fs.String("o", "", "write programs to DIR as NNNN.fpl (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	for i := 0; i < *n; i++ {
		src, _, _ := fuzz.GenerateProgram(*seed, i, *dims)
		if *out == "" {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("// program %d (seed %d)\n%s", i, *seed, src)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fpfuzz generate:", err)
			return 1
		}
		path := filepath.Join(*out, fmt.Sprintf("%04d.fpl", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fpfuzz generate:", err)
			return 1
		}
	}
	return 0
}

func run(args []string) int {
	fs := flag.NewFlagSet("fpfuzz run", flag.ContinueOnError)
	n := fs.Int("n", 100, "programs to fuzz")
	seed := fs.Int64("seed", 1, "campaign seed")
	dims := fs.Int("dims", 3, "cycle entry arity over 1..dims")
	evals := fs.Int("evals", 200, "weak-distance evaluations per start/round")
	workers := fs.Int("workers", 0, "pipeline workers (0 = all CPUs); never changes results")
	backends := fs.String("backends", "", "comma-separated backend subset (default: all)")
	analyses := fs.String("analyses", "", "comma-separated analysis subset (default: all)")
	layers := fs.String("layers", "engine,backend,replay", "oracle layers to run")
	recheck := fs.Bool("recheck", false, "re-run the analysis batch serially and require byte-identical results")
	maxV := fs.Int("max-violations", 20, "stop after this many violations")
	verbose := fs.Bool("v", false, "progress output")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	selected, err := parseLayers(*layers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpfuzz run:", err)
		return 2
	}
	o := fuzz.Options{
		N:             *n,
		Seed:          *seed,
		MaxDims:       *dims,
		Evals:         *evals,
		Workers:       *workers,
		MaxViolations: *maxV,
		Recheck:       *recheck,
		Backends:      splitList(*backends),
		Analyses:      splitList(*analyses),
		SkipEngines:   !selected["engine"],
		SkipBackends:  !selected["backend"],
		SkipReplay:    !selected["replay"],
	}
	if *verbose {
		o.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "fpfuzz: %d/%d programs through engine+backend layers\n", done, total)
			}
		}
	}
	res := fuzz.Run(o)
	fmt.Println("fpfuzz:", res.Summary())
	if !res.Ok() {
		for i, v := range res.Violations {
			if i >= 5 {
				fmt.Fprintf(os.Stderr, "... and %d more violations\n", len(res.Violations)-5)
				break
			}
			fmt.Fprintln(os.Stderr, "VIOLATION", v.String())
		}
		return 1
	}
	return 0
}

// crash runs the crash-recovery campaign: a golden durable run, then
// repeated journal truncations at random offsets with recovery, each
// required to reproduce the golden results exactly. -selftest tampers
// a golden expectation and requires the oracle to notice — the proof
// that a green campaign verified something.
func crash(args []string) int {
	fs := flag.NewFlagSet("fpfuzz crash", flag.ContinueOnError)
	rounds := fs.Int("rounds", 6, "crash offsets to exercise")
	seed := fs.Int64("seed", 1, "campaign seed")
	programs := fs.Int("programs", 3, "generated programs (one job batch each)")
	dims := fs.Int("dims", 3, "cycle entry arity over 1..dims")
	evals := fs.Int("evals", 60, "weak-distance evaluations per analysis")
	workers := fs.Int("workers", 0, "pipeline workers (0 = all CPUs); never changes results")
	analyses := fs.String("analyses", "", "comma-separated analysis subset (default: coverage,overflow,xsat)")
	panicJobs := fs.Int("panic-jobs", 0, "inject a panic into ~1/N of jobs, golden and recovery alike (0 disables)")
	faultProb := fs.Float64("fault-prob", 0, "injected fsync-failure probability during recovery (0 disables)")
	selftest := fs.Bool("selftest", false, "tamper a golden expectation; exit 0 only if the oracle catches it")
	dir := fs.String("dir", "", "scratch directory for journals (default: temp dir)")
	verbose := fs.Bool("v", false, "progress output")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	o := fuzz.CrashOptions{
		Rounds:    *rounds,
		Seed:      *seed,
		Programs:  *programs,
		MaxDims:   *dims,
		Evals:     *evals,
		Workers:   *workers,
		Analyses:  splitList(*analyses),
		PanicJobs: *panicJobs,
		FaultProb: *faultProb,
		Tamper:    *selftest,
		Dir:       *dir,
	}
	if *verbose {
		o.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "fpfuzz crash: %d/%d rounds\n", done, total)
		}
	}
	res := fuzz.RunCrash(o)
	fmt.Println("fpfuzz crash:", res.Summary())
	if *selftest {
		if res.Ok() {
			fmt.Fprintln(os.Stderr, "fpfuzz crash: selftest FAILED: the tampered expectation went unnoticed")
			return 1
		}
		fmt.Fprintln(os.Stderr, "fpfuzz crash: selftest ok: tampering detected")
		return 0
	}
	if !res.Ok() {
		for i, v := range res.Violations {
			if i >= 5 {
				fmt.Fprintf(os.Stderr, "... and %d more violations\n", len(res.Violations)-5)
				break
			}
			fmt.Fprintln(os.Stderr, "VIOLATION", v.String())
		}
		return 1
	}
	return 0
}

// clusterCmd runs the dead-worker campaign: a golden single-node run,
// then the same workload through a coordinator over an in-process
// fleet with the busiest worker killed mid-batch; every job must
// complete on the survivors with byte-identical results. -selftest
// tampers a golden expectation and requires the oracle to notice.
func clusterCmd(args []string) int {
	fs := flag.NewFlagSet("fpfuzz cluster", flag.ContinueOnError)
	workers := fs.Int("workers", 2, "fleet size (one worker is killed mid-batch)")
	seed := fs.Int64("seed", 1, "campaign seed")
	programs := fs.Int("programs", 4, "generated programs (one job batch each)")
	dims := fs.Int("dims", 3, "cycle entry arity over 1..dims")
	evals := fs.Int("evals", 120, "weak-distance evaluations per analysis")
	analyses := fs.String("analyses", "", "comma-separated analysis subset (default: coverage,overflow,xsat)")
	selftest := fs.Bool("selftest", false, "tamper a golden expectation; exit 0 only if the oracle catches it")
	verbose := fs.Bool("v", false, "coordinator log output")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	o := fuzz.ClusterOptions{
		Workers:  *workers,
		Seed:     *seed,
		Programs: *programs,
		MaxDims:  *dims,
		Evals:    *evals,
		Analyses: splitList(*analyses),
		Tamper:   *selftest,
	}
	if *verbose {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res := fuzz.RunCluster(o)
	fmt.Println("fpfuzz cluster:", res.Summary())
	if *selftest {
		if res.Ok() {
			fmt.Fprintln(os.Stderr, "fpfuzz cluster: selftest FAILED: the tampered expectation went unnoticed")
			return 1
		}
		fmt.Fprintln(os.Stderr, "fpfuzz cluster: selftest ok: tampering detected")
		return 0
	}
	if !res.Ok() {
		for i, v := range res.Violations {
			if i >= 5 {
				fmt.Fprintf(os.Stderr, "... and %d more violations\n", len(res.Violations)-5)
				break
			}
			fmt.Fprintln(os.Stderr, "VIOLATION", v.String())
		}
		return 1
	}
	return 0
}

func shrink(args []string) int {
	fs := flag.NewFlagSet("fpfuzz shrink", flag.ContinueOnError)
	inject := fs.Bool("inject-div", false, "install the synthetic division-divergence VM fault (self-test)")
	seed := fs.Int64("seed", 1, "campaign seed for -index / hunting")
	index := fs.Int("index", -1, "shrink generated program INDEX instead of a file")
	dims := fs.Int("dims", 3, "cycle entry arity over 1..dims")
	hunt := fs.Int("hunt", 200, "programs to scan when hunting for a failure")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	var check fuzz.EngineCheck
	if *inject {
		check.TamperVM = func(src string, r float64) float64 {
			if !strings.Contains(src, "/") {
				return r
			}
			if math.IsNaN(r) {
				return 0
			}
			return math.Float64frombits(math.Float64bits(r) ^ 1)
		}
	}

	var src string
	var inputs [][]float64
	switch {
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpfuzz shrink:", err)
			return 1
		}
		src = string(data)
		inputs = fuzz.InputsFor(src, "f", *seed)
		if inputs == nil {
			fmt.Fprintf(os.Stderr, "fpfuzz shrink: %s does not compile or has no function f\n", fs.Arg(0))
			return 1
		}
	case *index >= 0:
		src, _, inputs = fuzz.GenerateProgram(*seed, *index, *dims)
	default:
		// Hunt the generated stream for the first failing program.
		for i := 0; i < *hunt; i++ {
			s, _, in := fuzz.GenerateProgram(*seed, i, *dims)
			if len(fuzz.CheckEngines(s, "f", in, check)) > 0 {
				fmt.Fprintf(os.Stderr, "fpfuzz shrink: program %d fails the engine oracle; shrinking\n", i)
				src, inputs = s, in
				break
			}
		}
		if src == "" {
			fmt.Fprintf(os.Stderr, "fpfuzz shrink: no failing program in the first %d generated (is a fault injected or present?)\n", *hunt)
			return 2
		}
	}

	fails := func(cand string) bool {
		return len(fuzz.CheckEngines(cand, "f", inputs, check)) > 0
	}
	if !fails(src) {
		fmt.Fprintln(os.Stderr, "fpfuzz shrink: the program does not fail the engine oracle; nothing to shrink")
		return 2
	}
	reduced, err := fuzz.Shrink(src, fails)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpfuzz shrink:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "fpfuzz shrink: %d statements -> %d\n",
		fuzz.CountStmts(src), fuzz.CountStmts(reduced))
	fmt.Print(reduced)
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseLayers validates the -layers spec: every token must name a real
// oracle layer and at least one must be selected, so a typo can never
// produce a green run that verified nothing.
func parseLayers(spec string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		switch layer := strings.TrimSpace(part); layer {
		case "engine", "backend", "replay":
			selected[layer] = true
		case "":
		default:
			return nil, fmt.Errorf("unknown oracle layer %q (want engine, backend, replay)", layer)
		}
	}
	if len(selected) == 0 {
		return nil, errors.New("-layers selects no oracle layer")
	}
	return selected, nil
}

func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}
