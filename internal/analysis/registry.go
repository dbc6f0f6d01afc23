package analysis

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
	"repro/internal/sat"
)

// Spec is the uniform, JSON-serializable configuration of a registered
// analysis: one vocabulary of knobs shared by every analysis (the
// paper's point — all five instances are the same minimize-a-weak-
// distance problem), with per-analysis defaults supplied by
// DefaultSpec. Zero values select the analysis defaults throughout.
type Spec struct {
	// Analysis names the registered analysis to run.
	Analysis string `json:"analysis,omitempty"`
	// Seed makes the run deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Starts is the number of minimization restarts (multi-start
	// analyses: bva, reach, xsat).
	Starts int `json:"starts,omitempty"`
	// Evals bounds weak-distance evaluations per restart or round.
	Evals int `json:"evals,omitempty"`
	// Rounds caps minimization rounds (overflow, nan; 0 = 3 × ops).
	Rounds int `json:"rounds,omitempty"`
	// Stall stops coverage after this many rounds without progress.
	Stall int `json:"stall,omitempty"`
	// Retries relaunches a failing target from fresh starting points
	// (overflow, nan; 0 = 3).
	Retries int `json:"retries,omitempty"`
	// Bounds optionally restricts the input space. A single bound is
	// broadcast over all dimensions by the CLI/pipeline loaders.
	Bounds []opt.Bound `json:"bounds,omitempty"`
	// Backend names the MO backend (see opt.BackendNames; "" selects
	// basinhopping).
	Backend string `json:"backend,omitempty"`
	// ULP selects ULP branch/boundary distances (Limitation-2
	// mitigation).
	ULP bool `json:"ulp,omitempty"`
	// HighPrecision accumulates multiplicative distances in scaled
	// double-double arithmetic (bva), eliminating spurious zeros from
	// product underflow — the §5.2 mitigation of Limitation 2. With it
	// (or ULP), every reported zero provably carries a witness.
	HighPrecision bool `json:"highPrecision,omitempty"`
	// RealDist selects real-valued |l-r| atom distances for xsat.
	RealDist bool `json:"realDist,omitempty"`
	// Workers sets intra-analysis parallelism: 0 selects
	// runtime.NumCPU(), 1 runs one worker. Reports are identical for
	// every value. Capped at MaxWorkers.
	Workers int `json:"workers,omitempty"`
	// Path is the target decision sequence (reach).
	Path []instrument.Decision `json:"path,omitempty"`
	// Formula is the CNF source (xsat).
	Formula string `json:"formula,omitempty"`
}

// MaxWorkers caps Spec.Workers. The knob sizes allocations before any
// evaluation runs, so it is capped rather than trusted: a job above the
// cap is refused instead of exhausting the host's memory. It bounds
// what one job holds at once: at most MaxWorkers goroutines, each with
// its own program instance and weak-distance monitor, and MaxWorkers
// speculated rounds (coverage, overflow, nan) or start results per
// batch (bva). The cap admits every value the docs, CI and benchmarks
// use (up to 8).
const MaxWorkers = 256

// Validate checks the knobs that need no program — the cap on workers,
// then the backend name — typing a failure as a field-level
// SpecError. Every Run performs it too; submit-time validators (the
// /v1 job API) call it to refuse a job before it executes.
func (s Spec) Validate() *SpecError {
	if s.Workers > MaxWorkers {
		return &SpecError{Field: "workers", Value: fmt.Sprint(s.Workers),
			Reason: fmt.Sprintf("workers must be at most %d", MaxWorkers)}
	}
	if _, err := opt.BackendByName(s.Backend); err != nil {
		return &SpecError{Field: "backend", Value: s.Backend, Reason: err.Error()}
	}
	return nil
}

// backend validates the spec and resolves its backend.
func (s Spec) backend() (opt.Minimizer, error) {
	if spe := s.Validate(); spe != nil {
		return nil, spe
	}
	return opt.BackendByName(s.Backend)
}

// Input is what a registered analysis runs on.
type Input struct {
	// Program is the instrumentable program (nil for formula-based
	// analyses).
	Program *rt.Program
	// SF, when non-nil, is the concrete GSL-convention function behind
	// the program, enabling the §6.3.2 inconsistency replay.
	SF SFFunc
}

// Report is the typed result of a registered analysis. Concrete report
// types are JSON-serializable.
type Report interface {
	// Summary is a one-line human description of the outcome.
	Summary() string
	// Render writes the full human-readable report. The five legacy
	// analyses render byte-identically to their historical CLI output.
	Render(w io.Writer, in Input)
	// Failed reports a shell-visible negative outcome (path not
	// reached, formula not decided) — the legacy exit-code-2 cases.
	Failed() bool
	// Interrupted reports that the analysis observed context
	// cancellation and the report covers only the work done up to that
	// point. A completed report is never Interrupted, even if the
	// context fired after the analysis returned.
	Interrupted() bool
}

// Knobs declares which Spec fields an analysis consumes. It drives the
// registry-driven CLI flag registration (cli.SpecFlags): a new analysis
// gets its command-line surface for free.
type Knobs struct {
	// Program: the analysis runs on a program (-builtin / FPL source).
	Program bool
	// Starts / Stall / Rounds: which budget knobs apply.
	Starts bool
	Stall  bool
	Rounds bool
	// ULP / HighPrecision / RealDist: which distance-metric toggles
	// apply.
	ULP           bool
	HighPrecision bool
	RealDist      bool
	// Path: the analysis needs a target decision sequence.
	Path bool
	// Formula: the analysis runs on a CNF formula instead of a program.
	Formula bool
}

// Analysis is one registered weak-distance analysis.
type Analysis interface {
	// Name is the canonical registry name.
	Name() string
	// Describe is a one-line description for listings.
	Describe() string
	// DefaultSpec returns the analysis' default configuration (the
	// historical CLI flag defaults).
	DefaultSpec() Spec
	// Knobs declares which Spec fields the analysis consumes.
	Knobs() Knobs
	// Run executes the analysis. The context cancels it cooperatively at
	// weak-distance-evaluation granularity: when ctx fires, Run returns
	// promptly with a partial report marked as cancelled rather than an
	// error.
	Run(ctx context.Context, in Input, spec Spec) (Report, error)
}

var registry = struct {
	sync.RWMutex
	byName  map[string]Analysis
	aliases map[string]string
	order   []string
}{
	byName:  map[string]Analysis{},
	aliases: map[string]string{},
}

// Register adds an analysis (and optional alias spellings) to the
// registry. It panics on any name or alias collision — registration is
// an init-time affair, and a shadowed analysis must fail fast, not
// become silently unreachable.
func Register(a Analysis, aliases ...string) {
	registry.Lock()
	defer registry.Unlock()
	name := a.Name()
	taken := func(key string) bool {
		_, n := registry.byName[key]
		_, al := registry.aliases[key]
		return n || al
	}
	if taken(name) {
		panic("analysis: duplicate registration of " + name)
	}
	for _, al := range aliases {
		if al == name || taken(al) {
			panic("analysis: alias " + al + " of " + name + " collides with an existing registration")
		}
	}
	registry.byName[name] = a
	registry.order = append(registry.order, name)
	for _, al := range aliases {
		registry.aliases[al] = name
	}
}

// Lookup resolves an analysis by canonical name or alias
// (case-insensitive; canonical names win). The error lists the
// registered names.
func Lookup(name string) (Analysis, error) {
	registry.RLock()
	defer registry.RUnlock()
	key := strings.ToLower(name)
	if a, ok := registry.byName[key]; ok {
		return a, nil
	}
	if canon, ok := registry.aliases[key]; ok {
		if a, ok := registry.byName[canon]; ok {
			return a, nil
		}
	}
	return nil, &SpecError{Field: "analysis", Value: name,
		Reason: fmt.Sprintf("unknown analysis %q (available: %s)", name, strings.Join(namesLocked(), ", "))}
}

// Names lists the registered analyses in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, len(registry.order))
	copy(names, registry.order)
	return names
}

// All returns the registered analyses in registration order.
func All() []Analysis {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Analysis, 0, len(registry.order))
	for _, n := range registry.order {
		out = append(out, registry.byName[n])
	}
	return out
}

func init() {
	Register(bvaAnalysis{}, "boundary", "fpbva")
	Register(coverageAnalysis{}, "cover", "coverme")
	Register(overflowAnalysis{}, "fpod")
	Register(reachAnalysis{}, "fpreach", "path")
	Register(xsatAnalysis{}, "sat")
	Register(nanAnalysis{}, "nonfinite", "domain")
}

func needProgram(name string, in Input) (*rt.Program, error) {
	if in.Program == nil {
		return nil, &SpecError{Field: "program",
			Reason: fmt.Sprintf("%s: no program (pass -builtin NAME or an FPL source)", name)}
	}
	return in.Program, nil
}

// --- Boundary value analysis ---

type bvaAnalysis struct{}

func (bvaAnalysis) Name() string { return "bva" }
func (bvaAnalysis) Describe() string {
	return "boundary value analysis: inputs sitting exactly on branch boundaries (§4.2, §6.2)"
}
func (bvaAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "bva", Seed: 1, Starts: 32, Evals: 4000, Backend: "basinhopping"}
}
func (bvaAnalysis) Knobs() Knobs {
	return Knobs{Program: true, Starts: true, ULP: true, HighPrecision: true}
}
func (bvaAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	p, err := needProgram("bva", in)
	if err != nil {
		return nil, err
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	return BoundaryValues(ctx, p, BoundaryOptions{
		Seed:          s.Seed,
		Starts:        s.Starts,
		EvalsPerStart: s.Evals,
		Backend:       be,
		Bounds:        s.Bounds,
		ULP:           s.ULP,
		HighPrecision: s.HighPrecision,
		Workers:       s.Workers,
	}), nil
}

// --- Branch-coverage testing ---

type coverageAnalysis struct{}

func (coverageAnalysis) Name() string { return "coverage" }
func (coverageAnalysis) Describe() string {
	return "branch-coverage testing: inputs covering both sides of every branch (§2 Instance 4)"
}
func (coverageAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "coverage", Seed: 1, Evals: 4000, Stall: 6, Backend: "basinhopping"}
}
func (coverageAnalysis) Knobs() Knobs { return Knobs{Program: true, Stall: true, ULP: true} }
func (coverageAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	p, err := needProgram("coverage", in)
	if err != nil {
		return nil, err
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	return Cover(ctx, p, CoverOptions{
		Seed:          s.Seed,
		EvalsPerRound: s.Evals,
		MaxStall:      s.Stall,
		Backend:       be,
		Bounds:        s.Bounds,
		ULP:           s.ULP,
		Workers:       s.Workers,
	}), nil
}

// --- Overflow detection ---

// OverflowRun is the overflow report plus the §6.3.2 inconsistency
// replay, performed when the input carried a concrete special function.
type OverflowRun struct {
	*OverflowReport
	// SFChecked reports whether the inconsistency replay ran.
	SFChecked bool `json:"sfChecked"`
	// Inconsistencies are the replayed findings whose status claims
	// success while the result is non-finite.
	Inconsistencies []Inconsistency `json:"inconsistencies,omitempty"`
}

type overflowAnalysis struct{}

func (overflowAnalysis) Name() string { return "overflow" }
func (overflowAnalysis) Describe() string {
	return "overflow detection: inputs overflowing as many FP operations as possible (Algorithm 3, §6.3)"
}
func (overflowAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "overflow", Seed: 1, Evals: 6000, Backend: "basinhopping"}
}
func (overflowAnalysis) Knobs() Knobs { return Knobs{Program: true, Rounds: true} }
func (overflowAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	p, err := needProgram("overflow", in)
	if err != nil {
		return nil, err
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	rep := DetectOverflows(ctx, p, OverflowOptions{
		Seed:             s.Seed,
		EvalsPerRound:    s.Evals,
		MaxRounds:        s.Rounds,
		Backend:          be,
		Bounds:           s.Bounds,
		RetriesPerTarget: s.Retries,
		Workers:          s.Workers,
	})
	run := &OverflowRun{OverflowReport: rep}
	if in.SF != nil {
		var inputs [][]float64
		for _, f := range rep.Findings {
			inputs = append(inputs, f.Input)
		}
		run.SFChecked = true
		run.Inconsistencies = CheckInconsistencies(in.SF, inputs)
	}
	return run, nil
}

// --- Path reachability ---

// ReachRun is the reach outcome together with the program and target it
// answers for.
type ReachRun struct {
	core.Result `json:"result"`
	Program     string                `json:"program"`
	Target      []instrument.Decision `json:"target"`
}

type reachAnalysis struct{}

func (reachAnalysis) Name() string { return "reach" }
func (reachAnalysis) Describe() string {
	return "path reachability: an input driving execution along a target decision sequence (§4.3)"
}
func (reachAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "reach", Seed: 1, Starts: 8, Backend: "basinhopping"}
}
func (reachAnalysis) Knobs() Knobs {
	return Knobs{Program: true, Starts: true, ULP: true, Path: true}
}
func (reachAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	p, err := needProgram("reach", in)
	if err != nil {
		return nil, err
	}
	if len(s.Path) == 0 {
		return nil, &SpecError{Field: "path", Reason: "empty path; want e.g. 0:t,1:f"}
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	r := ReachPath(ctx, p, s.Path, ReachOptions{
		Seed:          s.Seed,
		Starts:        s.Starts,
		EvalsPerStart: s.Evals,
		Backend:       be,
		Bounds:        s.Bounds,
		ULP:           s.ULP,
		Workers:       s.Workers,
	})
	return &ReachRun{Result: r, Program: p.Name, Target: s.Path}, nil
}

// --- Floating-point satisfiability ---

// SatRun is the xsat outcome plus the variable-name binding of the
// parsed formula.
type SatRun struct {
	sat.Result
	// Vars maps source variable names to model indices.
	Vars map[string]int `json:"vars,omitempty"`
}

type xsatAnalysis struct{}

func (xsatAnalysis) Name() string { return "xsat" }
func (xsatAnalysis) Describe() string {
	return "floating-point satisfiability: decide a CNF over FP expressions (§2 Instance 5)"
}
func (xsatAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "xsat", Seed: 1, Starts: 8, Backend: "basinhopping"}
}
func (xsatAnalysis) Knobs() Knobs {
	return Knobs{Starts: true, RealDist: true, Formula: true}
}
func (xsatAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	if strings.TrimSpace(s.Formula) == "" {
		return nil, &SpecError{Field: "formula", Reason: "xsat: empty formula"}
	}
	f, vars, err := sat.Parse(s.Formula)
	if err != nil {
		return nil, &SpecError{Field: "formula", Value: s.Formula, Reason: err.Error()}
	}
	bounds := s.Bounds
	if f.Dim() > 0 {
		bounds, err = opt.BroadcastBounds(bounds, f.Dim())
		if err != nil {
			return nil, &SpecError{Field: "bounds", Reason: err.Error()}
		}
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	r := sat.Solve(ctx, f, sat.Options{
		Seed:          s.Seed,
		Starts:        s.Starts,
		EvalsPerStart: s.Evals,
		Backend:       be,
		Bounds:        bounds,
		RealDist:      s.RealDist,
		Workers:       s.Workers,
	})
	return &SatRun{Result: r, Vars: vars}, nil
}

// --- NaN / domain-error finding (the registry's analysis #6) ---

type nanAnalysis struct{}

func (nanAnalysis) Name() string { return "nan" }
func (nanAnalysis) Describe() string {
	return "NaN/domain-error finding: inputs driving FP operations to non-finite results (NaN, ±Inf)"
}
func (nanAnalysis) DefaultSpec() Spec {
	return Spec{Analysis: "nan", Seed: 1, Evals: 6000, Backend: "basinhopping"}
}
func (nanAnalysis) Knobs() Knobs { return Knobs{Program: true, Rounds: true} }
func (nanAnalysis) Run(ctx context.Context, in Input, s Spec) (Report, error) {
	p, err := needProgram("nan", in)
	if err != nil {
		return nil, err
	}
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	return FindNonFinite(ctx, p, NonFiniteOptions{
		Seed:             s.Seed,
		EvalsPerRound:    s.Evals,
		MaxRounds:        s.Rounds,
		Backend:          be,
		Bounds:           s.Bounds,
		RetriesPerTarget: s.Retries,
		Workers:          s.Workers,
	}), nil
}
