// Package core implements the reduction theory of Fu & Su (PLDI 2019):
// a floating-point analysis problem ⟨Prog; S⟩ — find an input in S or
// report "not found" — is solved by minimizing a weak distance W
// (Def. 3.1), a nonnegative program whose zeros are exactly S. Theorem
// 3.3 guarantees the reduction is faithful: minimizing W solves the
// problem in the sense of Def. 2.1(a-b).
//
// The package provides Algorithm 2 (Solve) on top of the black-box MO
// backends of internal/opt, with two practical refinements discussed in
// the paper's §5:
//
//   - multi-start minimization (§4.1: local MO applied over a set of
//     starting points), and
//   - an optional membership re-verification of the returned point
//     (§5.2 remark), which restores soundness when the constructed W has
//     spurious zeros due to floating-point inaccuracy (Limitation 2).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/opt"
)

// WeakDistance is a weak-distance program W : F^N → F (Def. 3.1). The
// framework never inspects it symbolically — it only executes it, which
// is the key practical benefit of the reduction (§1).
type WeakDistance func(x []float64) float64

// Problem packages a floating-point analysis problem ⟨Prog; S⟩ together
// with its constructed weak distance.
type Problem struct {
	// Name identifies the problem in reports.
	Name string
	// Dim is N, the input arity (dom(Prog) = F^N).
	Dim int
	// Member, when non-nil, decides x ∈ S by concrete execution. It is
	// the soundness guard of §5.2: a zero of W whose membership check
	// fails is rejected instead of being reported as a spurious
	// solution. Member calls are serialized by the multi-start driver,
	// but Member must still be safe to run while weak-distance
	// instances execute on other goroutines — construct it over its own
	// program instance.
	Member func(x []float64) bool
	// NewW returns an independent instance of the weak distance
	// constructed for the problem (Algorithm 2 step 1): own monitor,
	// own program instance. Solve calls it once per executed start,
	// from the goroutine that runs the start.
	NewW func() WeakDistance
}

// Options configures the Solve driver.
type Options struct {
	// Backend is the MO minimizer; nil selects Basinhopping.
	Backend opt.Minimizer
	// Starts is the number of random restarts; zero selects 8.
	Starts int
	// EvalsPerStart bounds evaluations per restart; zero selects
	// 20000 * Dim.
	EvalsPerStart int
	// Seed makes the run deterministic.
	Seed int64
	// Bounds optionally restricts the search space per dimension.
	Bounds []opt.Bound
	// Workers sets the multi-start parallelism: 0 selects
	// runtime.NumCPU(), 1 runs one worker. Results are identical for
	// every value — parallelism only changes wall-clock time.
	Workers int
}

func (o Options) backend() opt.Minimizer {
	if o.Backend != nil {
		return o.Backend
	}
	return &opt.Basinhopping{}
}

func (o Options) starts() int {
	if o.Starts > 0 {
		return o.Starts
	}
	return 8
}

func (o Options) evalsPerStart(dim int) int {
	if o.EvalsPerStart > 0 {
		return o.EvalsPerStart
	}
	return 20000 * dim
}

// Result is the outcome of Algorithm 2.
type Result struct {
	// Found reports whether a solution was returned (W(x*) = 0 and, when
	// a Member oracle is present, x* ∈ S).
	Found bool
	// X is the solution when Found.
	X []float64
	// W is the smallest weak-distance value sampled.
	W float64
	// Evals is the total number of W evaluations across restarts.
	Evals int
	// Restarts is the number of restarts actually used.
	Restarts int
	// Rejected counts zeros of W rejected by the membership guard
	// (evidence of Limitation 2 in the constructed weak distance).
	Rejected int
	// Canceled reports that the context fired before the search could
	// finish; the other fields describe whatever had been sampled by
	// then. Omitted from JSON when false so pre-context wire formats are
	// unchanged.
	Canceled bool `json:"canceled,omitempty"`
	// Reclaimed counts evaluations that executed starts returned unused
	// (early backend exit: a converged local search, or the portfolio
	// scheduler detecting that every stage plateaued). Omitted when
	// zero, so fixed budget-exhausting backends keep their wire format.
	Reclaimed int `json:"reclaimed,omitempty"`
	// BonusStarts counts the extra restarts funded by reclaimed budget
	// (they are included in Restarts). Omitted when zero.
	BonusStarts int `json:"bonusStarts,omitempty"`
	// Stages aggregates the backend's per-stage attribution across all
	// consumed starts (portfolio runs only): evaluations summed per
	// stage backend, best value minimized. Omitted for single-backend
	// runs.
	Stages []opt.StageResult `json:"stages,omitempty"`
}

// mergeStages folds one start's stage attribution into the aggregate:
// evals summed per backend in first-appearance order, Best minimized,
// the boolean outcomes OR-ed. Consumed starts are folded in start
// order, so the aggregate is as deterministic as the per-start results.
func mergeStages(agg []opt.StageResult, stages []opt.StageResult) []opt.StageResult {
	for _, st := range stages {
		merged := false
		for i := range agg {
			if agg[i].Backend == st.Backend {
				agg[i].Evals += st.Evals
				if st.Best < agg[i].Best {
					agg[i].Best = st.Best
				}
				agg[i].Improved = agg[i].Improved || st.Improved
				agg[i].FoundZero = agg[i].FoundZero || st.FoundZero
				merged = true
				break
			}
		}
		if !merged {
			agg = append(agg, st)
		}
	}
	return agg
}

// bonusStarts converts reclaimed evaluations into extra restarts: one
// per full per-start budget, capped at the original start count so a
// pathological early-exit backend cannot more than double the schedule.
func bonusStarts(reclaimed, budget, starts int) int {
	k := reclaimed / budget
	if k > starts {
		k = starts
	}
	return k
}

// String renders the result in the paper's reporting style.
func (r Result) String() string {
	if r.Found {
		return fmt.Sprintf("found x*=%v (W=0, %d evals, %d restarts)", r.X, r.Evals, r.Restarts)
	}
	return fmt.Sprintf("not found (min W=%.6g, %d evals, %d restarts, %d rejected)", r.W, r.Evals, r.Restarts, r.Rejected)
}

// startChunk is the most starts Solve hands opt.ParallelStarts at a
// time. ParallelStarts allocates a result slot per start up front, so a
// chunk bounds that memory (a few hundred KiB) however many starts a
// caller asks for; it sits far above every default schedule (8 to 64
// starts), which therefore runs as one chunk.
const startChunk = 4096

// Solve runs Algorithm 2 (weak-distance minimization) on the problem:
// minimize W from multiple random starts; return the first sampled exact
// zero, or "not found" when the budget expires with a positive minimum.
//
// The restarts run on opt.ParallelStarts, in chunks of at most
// startChunk, and fold in start order, stopping at the first
// membership-accepted zero — so the Result is identical for every
// worker count.
//
// The context cancels the whole search cooperatively, at objective-
// evaluation granularity (opt.Config.Ctx): when ctx fires, the result
// describes whatever had been sampled and is marked Canceled.
//
// Per Theorem 3.3 the procedure is exact up to the MO backend's ability
// to reach global minima: a returned point is always in S (soundness,
// enforced by construction and optionally by the Member guard); "not
// found" may be incomplete when the backend misses a zero
// (Limitation 3).
func Solve(ctx context.Context, p Problem, o Options) Result {
	if p.Dim < 1 {
		return Result{W: math.Inf(1)}
	}
	budget := o.evalsPerStart(p.Dim)
	launch := func(n int, seed int64) []opt.StartResult {
		return opt.ParallelStarts(o.backend(), func(int) opt.Objective {
			return opt.Objective(p.NewW())
		}, p.Dim, opt.ParallelConfig{
			Starts:     n,
			Workers:    o.Workers,
			Seed:       seed,
			SeedStride: 1000003,
			MaxEvals:   budget,
			Bounds:     o.Bounds,
			StopAtZero: true,
			Accept: func(_ int, r opt.Result) bool {
				return p.Member == nil || p.Member(r.X)
			},
			Ctx: ctx,
		})
	}

	res := Result{W: math.Inf(1)}
	// fold merges one chunk of starts in start order, including the
	// reclaimed-budget accounting, and reports whether the search is
	// decided (solution in hand, or cancelled).
	fold := func(starts []opt.StartResult, bonus bool) bool {
		for _, sr := range starts {
			res.Evals += sr.Evals
			if sr.Evals > 0 || !sr.Canceled {
				res.Restarts++
				if bonus {
					res.BonusStarts++
				}
				res.Stages = mergeStages(res.Stages, sr.Stages)
				if sr.F < res.W {
					res.W = sr.F
				}
			}
			// A start can both sample a zero and observe cancellation
			// (the deadline fires between the zero and the next done()
			// check): the zero wins — discarding a solution in hand would
			// turn a decided problem into "not found".
			if sr.FoundZero {
				if sr.ZeroAccepted {
					res.Found = true
					res.X = sr.X
					res.W = 0
					return true
				}
				res.Rejected++
			}
			if sr.Canceled {
				// Stop folding — the slots after a cancelled start are
				// cancelled or unreliable too.
				res.Canceled = true
				return true
			}
			// The start finished undecided without exhausting its budget
			// (portfolio early exit, converged local search, rejected
			// zero): the leftover is reclaimable.
			if sr.Evals < budget && !sr.Skipped {
				res.Reclaimed += budget - sr.Evals
			}
		}
		return false
	}
	// run schedules starts [first, first+n) chunk by chunk, seeds
	// following one per-start derivation, and reports whether the
	// search is decided.
	run := func(first, n int, bonus bool) bool {
		for base := 0; base < n; base += startChunk {
			k := min(n-base, startChunk)
			if fold(launch(k, o.Seed+int64(first+base)*1000003), bonus) {
				return true
			}
		}
		return false
	}
	if run(0, o.starts(), false) {
		return res
	}
	// Budget reallocation: every evaluation a start returned unused
	// (portfolio early exit, converged local search) funds extra
	// restarts for the still-unsolved problem — one bonus round, seeds
	// continuing the same derivation, so the outcome is a pure function
	// of the options. Backends that always exhaust their budget reclaim
	// nothing and keep the schedule exactly.
	run(o.starts(), bonusStarts(res.Reclaimed, budget, o.starts()), true)
	return res
}
