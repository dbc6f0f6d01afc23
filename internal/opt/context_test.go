package opt

import (
	"context"
	"math"
	"testing"
	"time"
)

// allMinimizers returns one instance of every registered backend, via
// the name registry so a newly registered backend is covered
// automatically.
func allMinimizers(t *testing.T) []Minimizer {
	t.Helper()
	var ms []Minimizer
	for _, name := range BackendNames() {
		m, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestCancellationWithinOneEval is the context contract of the solver
// stack: when Config.Ctx fires during objective evaluation N, no
// backend performs evaluation N+1 — cancellation lands within one
// evaluation, not one run. The objective itself counts its calls and
// cancels the context mid-call, so the assertion is on real objective
// invocations, not on bookkeeping.
func TestCancellationWithinOneEval(t *testing.T) {
	const cancelAt = 100
	for _, be := range allMinimizers(t) {
		be := be
		t.Run(be.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			obj := func(x []float64) float64 {
				calls++
				if calls == cancelAt {
					cancel() // fires mid-evaluation, like a real deadline
				}
				// No zeros: the search would run its full budget.
				return 1 + x[0]*x[0]
			}
			r := be.Minimize(obj, 2, Config{
				Seed:     1,
				MaxEvals: 10_000_000, // would take minutes if cancellation leaked
				Bounds:   []Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}},
				Ctx:      ctx,
			})
			if calls > cancelAt {
				t.Errorf("%s: %d objective calls after cancellation at call %d",
					be.Name(), calls-cancelAt, cancelAt)
			}
			if !r.Canceled {
				t.Errorf("%s: Result.Canceled = false after mid-run cancellation (%+v)", be.Name(), r)
			}
			if r.Evals != calls {
				t.Errorf("%s: Evals = %d, want %d (uncounted or phantom evaluations)", be.Name(), r.Evals, calls)
			}
		})
	}
}

// TestDeadlineStopsMinimize locks the deadline path: an
// already-expired context means zero objective calls.
func TestDeadlineStopsMinimize(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, be := range allMinimizers(t) {
		calls := 0
		r := be.Minimize(func(x []float64) float64 {
			calls++
			return math.Abs(x[0])
		}, 1, Config{Seed: 1, MaxEvals: 100000, Ctx: ctx})
		if calls != 0 {
			t.Errorf("%s: %d objective calls under an expired deadline", be.Name(), calls)
		}
		if !r.Canceled {
			t.Errorf("%s: Result.Canceled = false under an expired deadline", be.Name())
		}
	}
}

// TestNilCtxUnchanged pins that runs without a context are bit-identical
// to the pre-context behavior (the Ctx field must be invisible when
// unset).
func TestNilCtxUnchanged(t *testing.T) {
	for _, be := range allMinimizers(t) {
		cfg := Config{Seed: 7, MaxEvals: 2000, Bounds: []Bound{{Lo: -10, Hi: 10}}}
		a := be.Minimize(sphere, 1, cfg)
		cfg.Ctx = context.Background()
		b := be.Minimize(sphere, 1, cfg)
		if a.F != b.F || a.Evals != b.Evals || a.FoundZero != b.FoundZero {
			t.Errorf("%s: background context changed the run: %+v vs %+v", be.Name(), a, b)
		}
		if b.Canceled {
			t.Errorf("%s: Canceled set under an undone context", be.Name())
		}
	}
}

// TestParallelStartsCancellation: a cancelled schedule stops launching
// objective work and marks unstarted slots Canceled.
func TestParallelStartsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built := 0
	out := ParallelStarts(&Basinhopping{}, func(int) Objective {
		built++
		return sphere
	}, 1, ParallelConfig{
		Starts:   16,
		Workers:  2,
		MaxEvals: 100000,
		Ctx:      ctx,
	})
	if built != 0 {
		t.Errorf("%d objectives built under a pre-cancelled context", built)
	}
	for _, sr := range out {
		if sr.Evals != 0 || !sr.Canceled {
			t.Errorf("start %d ran under a pre-cancelled context: %+v", sr.Start, sr.Result)
		}
	}
}
