package opt

import "math"

// This file implements the plateau-detecting portfolio scheduler: a
// meta-backend that monitors the best-objective decay rate and spends
// the evaluation budget where it still buys progress, instead of riding
// one fixed backend to exhaustion. The architecture follows the
// escalate-on-stall loop of hybrid fuzzing schedulers: run a cheap
// probe, and only when its progress plateaus escalate to a race of the
// heavier techniques, re-seeded from the best point found so far.
//
// The scheduler never samples the objective itself: every inner backend
// routes through the portfolio's own evaluator, so budget accounting,
// tracing, best-so-far tracking, StopAtZero, and cancellation are the
// standard evaluator semantics — and, like every other backend, the
// whole schedule is a pure function of Config, so results are
// bit-identical under any ParallelStarts worker count.

// StageResult attributes one portfolio stage: the evaluations one
// backend consumed across all of its schedule slices, and what they
// bought.
type StageResult struct {
	// Backend is the stage's backend registry name.
	Backend string `json:"backend"`
	// Evals counts the objective evaluations consumed by this stage.
	Evals int `json:"evals"`
	// Best is the global best objective value at the end of the stage's
	// last slice.
	Best float64 `json:"best"`
	// Improved reports that the stage lowered the global best at least
	// once — the stage paid for itself.
	Improved bool `json:"improved,omitempty"`
	// FoundZero reports that this stage sampled the exact zero.
	FoundZero bool `json:"foundZero,omitempty"`
}

// plateauDetector measures the best-objective decay rate over a sliding
// evaluation window. It is fed the (evals, best) bookkeeping stream at
// schedule-slice boundaries. Once a full window elapses with a relative
// decay below ratio, the stream is declared stalled.
type plateauDetector struct {
	window    int
	ratio     float64
	markEvals int
	markBest  float64
}

func newPlateauDetector(window int, ratio float64, evals int, best float64) *plateauDetector {
	return &plateauDetector{window: window, ratio: ratio, markEvals: evals, markBest: best}
}

// observe folds one (evals, best) checkpoint and reports whether the
// last full window stalled. Checkpoints inside the current window never
// stall — a truncated final slice must not condemn a backend.
func (d *plateauDetector) observe(evals int, best float64) bool {
	if evals-d.markEvals < d.window {
		return false
	}
	improved := best < d.markBest &&
		(math.IsInf(d.markBest, 1) || d.markBest-best > d.ratio*math.Abs(d.markBest))
	d.markEvals, d.markBest = evals, best
	return !improved
}

// Portfolio is the plateau-detecting portfolio scheduler, registered as
// backend "portfolio". It minimizes time-to-zero rather than ns/eval:
//
//  1. a cheap Probe backend runs in window-sized schedule slices, each
//     resumed from the best point so far;
//  2. when the probe's best-objective decay plateaus, the remaining
//     Racers are raced round-robin over the shared budget, every slice
//     re-seeded from the global best (backends implementing
//     LocalMinimizer resume from it; population/chain backends restart
//     from their derived seed);
//  3. a racer whose own window of evaluations fails to improve the
//     global best is dropped; when every stage has stalled the
//     portfolio exits early, RETURNING the unused budget
//     (Result.Exhausted stays false) instead of burning it — core.Solve
//     reallocates the reclaimed evaluations to fresh starts.
//
// Under StopAtZero the whole portfolio short-circuits the moment any
// stage samples an exact zero, per the weak-distance contract. Without
// StopAtZero (saturation-style clients that keep sampling after zeros)
// the plateau rule still applies: once the best value stops decaying —
// including because it reached 0 — the portfolio exits early; clients
// that want exhaustive sampling at zero should keep a fixed backend.
//
// The zero value is ready to use. Fields tune the schedule.
type Portfolio struct {
	// Probe is the registry name of the cheap first-stage backend
	// ("" selects neldermead).
	Probe string
	// Racers are the registry names of the escalation backends, raced in
	// order. Nil selects every registered fixed backend except the
	// probe, in registry order. "portfolio" entries are ignored (the
	// scheduler does not nest).
	Racers []string
	// StallWindow is the plateau window in objective evaluations, and
	// also the schedule-slice size. Zero selects 400 × dim.
	StallWindow int
	// StallRatio is the minimum relative best-objective decay per window
	// for a stage to stay alive. Zero selects 0.01.
	StallRatio float64
}

// Name implements Minimizer.
func (p *Portfolio) Name() string { return "Portfolio" }

func (p *Portfolio) window(dim int) int {
	if p.StallWindow > 0 {
		return p.StallWindow
	}
	return 400 * dim
}

func (p *Portfolio) ratio() float64 {
	if p.StallRatio > 0 {
		return p.StallRatio
	}
	return 0.01
}

// lineup resolves the stage backends: the probe first, then the racers.
// Unknown or nested-portfolio spellings are dropped; an unusable probe
// falls back to the default, so the lineup is never empty.
func (p *Portfolio) lineup() (names []string, stages []Minimizer) {
	add := func(name string) bool {
		m, ok := newBackend(name)
		if !ok || name == "portfolio" {
			return false
		}
		if _, nested := m.(*Portfolio); nested {
			return false
		}
		for _, n := range names {
			if n == name {
				return false
			}
		}
		names = append(names, name)
		stages = append(stages, m)
		return true
	}
	probe := p.Probe
	if probe == "" || !add(canonicalBackendName(probe)) {
		add("neldermead")
	}
	racers := p.Racers
	if racers == nil {
		racers = BackendNames()
	}
	for _, r := range racers {
		add(canonicalBackendName(r))
	}
	return names, stages
}

// Minimize implements Minimizer by running the plateau-escalate-race
// schedule described on Portfolio.
func (p *Portfolio) Minimize(obj Objective, dim int, cfg Config) Result {
	e := newEvaluator(obj, cfg, 4000*dim)
	if e.cancelled() || dim < 1 {
		return e.result(0)
	}
	window := p.window(dim)
	ratio := p.ratio()
	names, backends := p.lineup()

	// Every inner backend samples through the portfolio's evaluator,
	// gated on the outer schedule (budget, zero, cancellation) exactly
	// like eval itself.
	innerObj := Objective(func(x []float64) float64 {
		if e.done() {
			return math.Inf(1)
		}
		return e.eval(x)
	})

	stages := make([]StageResult, len(names))
	for i := range stages {
		stages[i].Backend = names[i]
		stages[i].Best = math.Inf(1)
	}
	slices := 0
	winner := -1

	// runSlice gives one stage a window-sized slice of the remaining
	// budget, resumed from the global best point when the backend can.
	// It returns whether the slice consumed any budget at all — a
	// zero-consumption slice means the stage can make no further
	// progress and must not be rescheduled (termination guarantee).
	runSlice := func(stage int) bool {
		rem := e.max - e.evals
		if rem > window {
			rem = window
		}
		icfg := Config{
			Seed:       cfg.Seed + int64(slices+1)*15485863,
			MaxEvals:   rem,
			Bounds:     cfg.Bounds,
			StopAtZero: cfg.StopAtZero,
			Ctx:        cfg.Ctx,
		}
		before, beforeBest := e.evals, e.bestF
		if lm, ok := backends[stage].(LocalMinimizer); ok && e.bestX != nil {
			// The evaluator reuses bestX's backing array; hand the inner
			// backend its own copy.
			x0 := append([]float64(nil), e.bestX...)
			lm.MinimizeFrom(innerObj, x0, icfg)
		} else {
			backends[stage].Minimize(innerObj, dim, icfg)
		}
		slices++
		st := &stages[stage]
		st.Evals += e.evals - before
		st.Best = e.bestF
		if e.bestF < beforeBest {
			st.Improved = true
			winner = stage
		}
		if e.bestF == 0 && beforeBest != 0 {
			st.FoundZero = true
		}
		return e.evals > before
	}

	// Stage 1: the probe, sliced until it plateaus (or finishes the
	// job).
	det := newPlateauDetector(window, ratio, e.evals, e.bestF)
	for !e.done() {
		consumed := runSlice(0)
		if !consumed || det.observe(e.evals, e.bestF) {
			break
		}
	}

	// Stage 2: race the escalation backends round-robin, one window
	// slice each, dropping any racer whose own window stalls. Each
	// racer's detector is keyed on the racer's own consumption, so
	// interleaved slices never dilute the verdict.
	if !e.done() && len(names) > 1 {
		dets := make([]*plateauDetector, len(names))
		own := make([]int, len(names))
		dropped := make([]bool, len(names))
		alive := 0
		for i := 1; i < len(names); i++ {
			dets[i] = newPlateauDetector(window, ratio, 0, e.bestF)
			alive++
		}
		for alive > 0 && !e.done() {
			for i := 1; i < len(names) && !e.done(); i++ {
				if dropped[i] {
					continue
				}
				before := e.evals
				consumed := runSlice(i)
				own[i] += e.evals - before
				if !consumed || dets[i].observe(own[i], e.bestF) {
					dropped[i] = true
					alive--
				}
			}
		}
	}
	// Falling out of both loops with budget left is the early exit: all
	// stages plateaued, so the remaining evaluations are returned to the
	// caller (Exhausted stays false) instead of burned.

	r := e.result(slices)
	executed := stages[:0]
	for _, st := range stages {
		if st.Evals > 0 {
			executed = append(executed, st)
		}
	}
	if len(executed) > 0 {
		r.Stages = append([]StageResult(nil), executed...)
	}
	if winner >= 0 {
		r.Winner = names[winner]
	}
	return r
}
