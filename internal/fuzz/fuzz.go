package fuzz

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/fplgen"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// Options configures a fuzz campaign.
type Options struct {
	// N is the number of generated programs; 0 selects 100.
	N int
	// Seed derives every per-program seed; campaigns are fully
	// reproducible from (Seed, N).
	Seed int64
	// MaxDims cycles entry arity over 1..MaxDims; 0 selects 3.
	MaxDims int
	// Evals is the per-start/per-round weak-distance budget of the
	// backend and analysis layers; 0 selects 200.
	Evals int
	// Analyses restricts oracle layer 3 to these registered analyses;
	// empty selects all of them.
	Analyses []string
	// Backends restricts oracle layer 2; empty selects every registered
	// backend.
	Backends []string
	// Workers bounds the pipeline worker pool (0 = all CPUs). Worker
	// count never changes any result — that is itself one of the
	// properties under test.
	Workers int
	// MaxViolations stops the campaign early once this many oracle
	// violations have been collected; 0 selects 20.
	MaxViolations int
	// Recheck re-runs the whole analysis batch serially (Workers=1) and
	// requires byte-identical wire results — the pipeline determinism
	// oracle. Doubles the analysis cost; off by default.
	Recheck bool
	// SkipEngines / SkipBackends / SkipReplay disable individual oracle
	// layers (the CLI's -layers flag).
	SkipEngines  bool
	SkipBackends bool
	SkipReplay   bool
	// Engine configures oracle layer 1.
	Engine EngineCheck
	// Progress, when non-nil, receives (programs done, total) after
	// each generated program's engine/backend layers.
	Progress func(done, total int)
}

func (o Options) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o Options) maxDims() int {
	if o.MaxDims > 0 {
		return o.MaxDims
	}
	return 3
}

func (o Options) evals() int {
	if o.Evals > 0 {
		return o.Evals
	}
	return 200
}

func (o Options) maxViolations() int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return 20
}

// Result is the outcome of a fuzz campaign.
type Result struct {
	// Programs is the number of generated programs exercised.
	Programs int
	// EngineInputs counts inputs run through the engine differential.
	EngineInputs int
	// BackendRuns counts individual backend minimizations.
	BackendRuns int
	// Jobs counts pipeline analysis jobs executed.
	Jobs int
	// FindingsReplayed counts individual findings re-executed by the
	// replay oracle.
	FindingsReplayed int
	// CacheHits counts pipeline module-cache hits.
	CacheHits int
	// Violations are all oracle failures, in discovery order.
	Violations []Violation
}

// Ok reports a clean campaign.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// Summary is a one-line outcome.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d programs, %d engine inputs, %d backend runs, %d jobs, %d findings replayed, %d cache hits: %d violations",
		r.Programs, r.EngineInputs, r.BackendRuns, r.Jobs, r.FindingsReplayed, r.CacheHits, len(r.Violations))
}

// progSeed derives the deterministic seed of program i — independent of
// N and of which layers run, so a failing program can be regenerated
// from (campaign seed, index) alone.
func progSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7919
}

// generateProgram derives program i of a campaign — source, entry
// arity, input battery — and returns the rng positioned right after
// those draws (the campaign draws its reach path and xsat formula from
// the same stream). This is the single definition of the
// (seed, index) → program contract.
func generateProgram(seed int64, i, maxDims int) (src string, dim int, inputs [][]float64, rng *rand.Rand) {
	if maxDims <= 0 {
		maxDims = 3
	}
	rng = rand.New(rand.NewSource(progSeed(seed, i)))
	dim = 1 + i%maxDims
	g := &fplgen.Generator{Config: fplgen.Config{Params: dim}}
	src = g.Module(rng)
	inputs = fplgen.Inputs(rng, dim)
	return src, dim, inputs, rng
}

// GenerateProgram regenerates program i of a campaign: the source, its
// entry arity, and its differential input battery. cmd/fpfuzz uses it
// for `generate` and `shrink`.
func GenerateProgram(seed int64, i, maxDims int) (src string, dim int, inputs [][]float64) {
	src, dim, inputs, _ = generateProgram(seed, i, maxDims)
	return src, dim, inputs
}

// InputsFor builds the differential input battery matching the arity
// of fn in src (nil when src does not compile or lacks fn). The battery
// is deterministic in seed.
func InputsFor(src, fn string, seed int64) [][]float64 {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil
	}
	f := mod.Func(fn)
	if f == nil {
		return nil
	}
	return fplgen.Inputs(rand.New(rand.NewSource(seed)), f.NParams)
}

// Run executes a fuzz campaign: N generated programs through the
// engine-differential, backend-differential, and finding-replay oracle
// layers, with the analysis work of layer 3 batched through an
// internal/pipeline worker pool (so a campaign is also a pipeline and
// module-cache stress test).
func Run(o Options) *Result {
	res := &Result{}
	type progCase struct {
		src    string
		dim    int
		rng    *rand.Rand
		inputs [][]float64
	}
	overBudget := func() bool { return len(res.Violations) >= o.maxViolations() }

	// Generate all programs up front (cheap) so layer 3 can batch them
	// through one pipeline stream.
	cases := make([]progCase, 0, o.n())
	for i := 0; i < o.n(); i++ {
		src, dim, inputs, rng := generateProgram(o.Seed, i, o.maxDims())
		cases = append(cases, progCase{src: src, dim: dim, rng: rng, inputs: inputs})
	}

	// Layers 1+2, program by program.
	for i, c := range cases {
		if overBudget() {
			break
		}
		res.Programs++
		if !o.SkipEngines {
			res.EngineInputs += len(c.inputs)
			res.Violations = append(res.Violations,
				CheckEngines(c.src, "f", c.inputs, o.Engine)...)
		}
		if !o.SkipBackends && !overBudget() {
			bc := BackendCheck{Backends: o.Backends, Seed: progSeed(o.Seed, i), Evals: o.evals()}
			res.BackendRuns += len(bc.backends())
			res.Violations = append(res.Violations, CheckBackends(c.src, "f", bc)...)
		}
		if o.Progress != nil {
			o.Progress(i+1, len(cases))
		}
	}

	if o.SkipReplay || overBudget() {
		return res
	}

	// Layer 3: batch every program × every analysis through the
	// pipeline, then replay each report's findings.
	type jobMeta struct {
		prog int // index into cases; -1 for formula-only jobs
	}
	var jobs []pipeline.Job
	var metas []jobMeta
	for i, c := range cases {
		for _, spec := range analysisSpecs(c.src, c.rng, progSeed(o.Seed, i), o) {
			meta := jobMeta{prog: i}
			job := pipeline.Job{Spec: spec}
			if spec.Formula == "" {
				job.Source = c.src
				job.Func = "f"
			} else {
				meta.prog = -1
			}
			jobs = append(jobs, job)
			metas = append(metas, meta)
		}
	}

	// Replay programs are compiled once per source, on the same engine
	// the pipeline jobs ran on.
	progs := map[int]*rt.Program{}
	replayProg := func(i int) *rt.Program {
		if p, ok := progs[i]; ok {
			return p
		}
		mod, err := ir.Compile(cases[i].src)
		if err != nil {
			return nil // unreachable: the generator guarantees compilation
		}
		p, err := interp.New(mod).Program("f")
		if err != nil {
			return nil
		}
		progs[i] = p
		return p
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl := pipeline.New(o.Workers)
	var wire [][]byte
	pl.Stream(ctx, jobs, func(jr pipeline.JobResult) {
		if o.Recheck {
			wire = append(wire, pipeline.NormalizeDurations(pipeline.MarshalResult(jr)))
		}
		if overBudget() {
			cancel()
			return
		}
		res.Jobs++
		if jr.CacheHit {
			res.CacheHits++
		}
		meta := metas[jr.Index]
		if jr.Error != "" {
			src := ""
			if meta.prog >= 0 {
				src = cases[meta.prog].src
			}
			res.Violations = append(res.Violations, Violation{
				Layer:   "pipeline",
				Program: src,
				Detail: fmt.Sprintf("job %d (%s) failed: %s",
					jr.Index, jobs[jr.Index].Spec.Analysis, jr.Error),
			})
			return
		}
		var p *rt.Program
		if meta.prog >= 0 {
			p = replayProg(meta.prog)
		}
		vs := ReplayFindings(p, jobs[jr.Index].Spec, jr.Report)
		res.FindingsReplayed += countFindings(jr.Report)
		for vi := range vs {
			if vs[vi].Program == "" && meta.prog >= 0 {
				vs[vi].Program = cases[meta.prog].src
			}
		}
		res.Violations = append(res.Violations, vs...)
	})

	// Pipeline determinism oracle: the same batch run serially must
	// produce byte-identical wire results.
	if o.Recheck && !overBudget() {
		serial := pipeline.New(1)
		i := 0
		serial.Stream(context.Background(), jobs, func(jr pipeline.JobResult) {
			if i < len(wire) {
				if got := pipeline.NormalizeDurations(pipeline.MarshalResult(jr)); string(got) != string(wire[i]) {
					res.Violations = append(res.Violations, Violation{
						Layer: "pipeline",
						Detail: fmt.Sprintf("job %d wire bytes differ between Workers=%d and Workers=1:\n%s\nvs\n%s",
							jr.Index, o.Workers, wire[i], got),
					})
				}
			}
			i++
		})
	}
	return res
}

// analysisSpecs builds the layer-3 spec list for one program: every
// selected program analysis with a small deterministic budget, plus an
// xsat job over a generated formula.
func analysisSpecs(src string, rng *rand.Rand, seed int64, o Options) []analysis.Spec {
	selected := func(name string) bool {
		if len(o.Analyses) == 0 {
			return true
		}
		for _, a := range o.Analyses {
			if a == name {
				return true
			}
		}
		return false
	}
	e := o.evals()
	var specs []analysis.Spec
	if selected("bva") {
		// High precision makes "every reported zero carries a witness"
		// a theorem (no product-underflow zeros), so the replay oracle
		// can require SoundnessViolations == 0.
		specs = append(specs, analysis.Spec{Analysis: "bva", Seed: seed, Starts: 2, Evals: e,
			HighPrecision: true})
	}
	if selected("coverage") {
		specs = append(specs, analysis.Spec{Analysis: "coverage", Seed: seed, Evals: e, Stall: 2})
	}
	if selected("overflow") {
		specs = append(specs, analysis.Spec{Analysis: "overflow", Seed: seed, Evals: e, Rounds: 8, Retries: 1})
	}
	if selected("nan") {
		specs = append(specs, analysis.Spec{Analysis: "nan", Seed: seed, Evals: e, Rounds: 8, Retries: 1})
	}
	if selected("reach") {
		if path := realizablePath(src, rng); len(path) > 0 {
			specs = append(specs, analysis.Spec{Analysis: "reach", Seed: seed, Starts: 2, Evals: e, Path: path})
		}
	}
	if selected("xsat") {
		specs = append(specs, analysis.Spec{Analysis: "xsat", Seed: seed, Starts: 2, Evals: 2 * e,
			Formula: fplgen.Formula(rng, 1+rng.Intn(2))})
	}
	return specs
}

// realizablePath derives a reach target for the program by recording
// the decision sequence of a concrete execution — a path known to be
// realizable, so the reach analysis should find it (and, per the
// oracle, any Found answer must replay). Programs without branches (or
// whose sampled runs decide nothing) get no reach job.
func realizablePath(src string, rng *rand.Rand) []instrument.Decision {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil
	}
	p, err := interp.New(mod).Program("f")
	if err != nil || len(p.Branches) == 0 {
		return nil
	}
	x := make([]float64, p.Dim)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	wit := &instrument.PathWitness{}
	p.Execute(wit, x)
	ds := wit.Decisions()
	if len(ds) == 0 {
		return nil
	}
	if len(ds) > 3 {
		ds = ds[:3]
	}
	return append([]instrument.Decision(nil), ds...)
}

// countFindings tallies the positive claims of a report — the units the
// replay oracle re-executes.
func countFindings(rep analysis.Report) int {
	switch r := rep.(type) {
	case *analysis.BoundaryReport:
		n := 0
		for _, cs := range r.Conditions {
			n += len(cs.Examples)
		}
		return n
	case *analysis.CoverReport:
		return len(r.Covered)
	case *analysis.OverflowRun:
		return len(r.Findings)
	case *analysis.NonFiniteReport:
		return len(r.Findings)
	case *analysis.ReachRun:
		if r.Found {
			return 1
		}
		return 0
	case *analysis.SatRun:
		if r.Verdict != 0 {
			return 1
		}
		return 0
	}
	return 0
}
