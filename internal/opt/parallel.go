package opt

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelConfig configures a ParallelStarts run: a fixed schedule of
// independent minimization starts distributed over a worker pool. The
// schedule — which starts exist, which seed each uses, and which results
// the caller consumes — is a pure function of the configuration minus
// Workers, so the merged outcome of a run is identical for every worker
// count (including 1, which reproduces the historical serial loops of
// the analysis clients exactly).
type ParallelConfig struct {
	// Starts is the number of independent minimization restarts.
	Starts int
	// Workers bounds the goroutine pool; zero or negative selects
	// runtime.NumCPU(). Workers only controls scheduling, never results.
	Workers int
	// Seed is the root seed. Start s runs with Seed + s*SeedStride, the
	// same per-start derivation the serial multi-start loops used.
	Seed int64
	// SeedStride is the per-start seed increment; zero selects 1000003
	// (core.Solve's stride).
	SeedStride int64
	// MaxEvals bounds objective evaluations per start (0 = backend
	// default).
	MaxEvals int
	// Bounds restricts the search space per dimension.
	Bounds []Bound
	// StopAtZero makes each start halt on an exact zero AND drains the
	// queue: once some start finds an accepted zero, pending starts with
	// a HIGHER index are skipped (a serial loop would never have reached
	// them). Pending starts with a lower index still run, so the
	// lowest-index zero — the one a serial loop reports — is always
	// discovered.
	StopAtZero bool
	// RecordTrace allocates a per-start Trace recording every objective
	// evaluation of that start (merged by callers in start order).
	RecordTrace bool
	// Accept, when non-nil, is consulted on every exact zero before it
	// may drain the queue (the §5.2 membership guard: spurious zeros of
	// a defective weak distance must not cancel the remaining starts).
	// Calls are serialized by the driver, so Accept may use non-reentrant
	// state, but it must be a pure function of (start, Result) for the
	// run to stay deterministic.
	Accept func(start int, r Result) bool
	// Ctx, when non-nil, cancels the whole schedule cooperatively: every
	// executed start checks it at evaluation granularity (Config.Ctx),
	// and starts not yet begun when it fires return immediately with
	// Canceled set. Cancellation necessarily breaks the worker-count
	// determinism contract — partial results are whatever each start had
	// sampled when the context fired.
	Ctx context.Context
}

func (c ParallelConfig) workers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > c.Starts {
		w = c.Starts
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c ParallelConfig) stride() int64 {
	if c.SeedStride != 0 {
		return c.SeedStride
	}
	return 1000003
}

// StartResult is the outcome of one scheduled start.
type StartResult struct {
	// Start is the start index (results are returned ordered by it).
	Start int
	// Result is the backend's outcome; zero-valued when Skipped.
	Result
	// Trace holds the start's samples when RecordTrace was set.
	Trace *Trace
	// Skipped reports that the start was drained before running: an
	// accepted zero at a lower index made it unreachable for the
	// equivalent serial loop.
	Skipped bool
	// ZeroAccepted reports that the start sampled an exact zero and the
	// Accept guard (or its absence) admitted it.
	ZeroAccepted bool
}

// ParallelStarts runs Starts independent minimizations of per-start
// objectives over a goroutine pool — the paper's multi-start MO driver
// (§4.1) parallelized across restarts, which are embarrassingly
// parallel: each start has its own derived seed, its own objective
// instance (and therefore its own monitor state), and its own trace.
//
// The objective factory is invoked once per executed start, from the
// worker goroutine that runs it. It must return an objective whose
// evaluation is independent of every other start's objective: analysis
// callers build one fresh monitor (and, for interpreter-backed
// programs, one fresh program instance) per call.
//
// Results are returned indexed by start. Determinism contract: every
// start at or below the lowest accepted zero runs to completion with a
// Result identical for every Workers value (without StopAtZero that is
// every start). Starts above that zero are timing-dependent — skipped,
// or cancelled mid-run with garbage Results — and must never be
// consumed. Callers merge in start order and stop at the first
// FoundZero slot (or consume everything when StopAtZero is off), which
// makes the merged report bit-identical to the historical serial
// loops.
func ParallelStarts(backend Minimizer, objective func(start int) Objective, dim int, cfg ParallelConfig) []StartResult {
	n := cfg.Starts
	out := make([]StartResult, n)
	for s := range out {
		out[s].Start = s
	}
	if n == 0 || dim < 1 {
		return out
	}

	// minZero is the lowest start index that produced an accepted zero;
	// n is the "none yet" sentinel. It only ever decreases.
	var minZero atomic.Int64
	minZero.Store(int64(n))
	var acceptMu sync.Mutex

	jobs := make(chan int, n)
	for s := 0; s < n; s++ {
		jobs <- s
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				res := &out[s]
				if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
					// Don't pay for objective construction (a program
					// instance per start) once the run is dead; Minimize
					// would return immediately anyway.
					res.Canceled = true
					continue
				}
				if cfg.StopAtZero && int64(s) > minZero.Load() {
					// A lower-index start already found an accepted
					// zero: the serial loop would have stopped before
					// reaching this start.
					res.Skipped = true
					continue
				}
				var tr *Trace
				if cfg.RecordTrace {
					tr = &Trace{}
				}
				obj := objective(s)
				if cfg.StopAtZero {
					// Cooperative cancellation for in-flight starts: once a
					// lower-index start holds an accepted zero, this start's
					// result can never be consumed (the merge stops at that
					// zero), so stop paying for program executions and burn
					// the remaining budget on a constant. minZero only
					// decreases, so a start that short-circuits once stays
					// unconsumable forever — determinism of consumed
					// results is unaffected.
					real := obj
					obj = func(x []float64) float64 {
						if int64(s) > minZero.Load() {
							return math.Inf(1)
						}
						return real(x)
					}
				}
				r := backend.Minimize(obj, dim, Config{
					Seed:       cfg.Seed + int64(s)*cfg.stride(),
					MaxEvals:   cfg.MaxEvals,
					Bounds:     cfg.Bounds,
					StopAtZero: cfg.StopAtZero,
					Trace:      tr,
					Ctx:        cfg.Ctx,
				})
				res.Result = r
				res.Trace = tr
				if !r.FoundZero {
					continue
				}
				accepted := true
				if cfg.Accept != nil {
					acceptMu.Lock()
					accepted = cfg.Accept(s, r)
					acceptMu.Unlock()
				}
				res.ZeroAccepted = accepted
				if accepted && cfg.StopAtZero {
					for {
						cur := minZero.Load()
						if int64(s) >= cur || minZero.CompareAndSwap(cur, int64(s)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return out
}
