package core_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
)

// zeroless is a weak distance with no zero: cancellation is the only
// way out before the budget.
func zeroless(x []float64) float64 { return 1 + x[0]*x[0] }

// TestSolveCancellation: Solve stops on a cancelled context and marks
// the result, on one worker and on several.
func TestSolveCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		counting := func(x []float64) float64 {
			if calls.Add(1) == 50 {
				cancel()
			}
			return zeroless(x)
		}
		// Every start shares the counter (the assertion is only prompt
		// termination, so concurrent starts don't matter).
		p := core.Problem{Name: "zeroless", Dim: 1,
			NewW: func() core.WeakDistance { return counting }}
		r := core.Solve(ctx, p, core.Options{
			Seed: 1, Starts: 1000, EvalsPerStart: 1_000_000,
			Bounds:  []opt.Bound{{Lo: -10, Hi: 10}},
			Workers: workers,
		})
		cancel()
		if !r.Canceled {
			t.Errorf("workers=%d: Canceled=false: %+v", workers, r)
		}
		if r.Found {
			t.Errorf("workers=%d: spurious Found on a zeroless distance", workers)
		}
	}
}

// TestSolveCancellationSerialOneEval pins one-worker solving to the
// one-evaluation contract end to end through core.Solve.
func TestSolveCancellationSerialOneEval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	w := func(x []float64) float64 {
		calls++
		if calls == 70 {
			cancel()
		}
		return zeroless(x)
	}
	r := core.Solve(ctx, core.Problem{
		Name: "zeroless", Dim: 1,
		NewW: func() core.WeakDistance { return w },
	}, core.Options{
		Seed: 1, Starts: 100, EvalsPerStart: 1_000_000,
		Bounds:  []opt.Bound{{Lo: -10, Hi: 10}},
		Workers: 1,
	})
	if calls > 70 {
		t.Errorf("%d weak-distance evaluations after cancellation", calls-70)
	}
	if !r.Canceled || r.Evals != calls {
		t.Errorf("result bookkeeping: calls=%d %+v", calls, r)
	}
}

// TestSolveHugeStartsCanceledPromptly: a starts count far past what one
// schedule could hold in memory runs chunk by chunk until its deadline,
// then returns Canceled.
func TestSolveHugeStartsCanceledPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	r := core.Solve(ctx, core.Problem{Name: "zeroless", Dim: 1,
		NewW: func() core.WeakDistance { return zeroless },
	}, core.Options{
		Seed: 1, Starts: 200_000_000, EvalsPerStart: 100,
		Bounds:  []opt.Bound{{Lo: -10, Hi: 10}},
		Workers: 2,
	})
	if !r.Canceled || r.Found {
		t.Errorf("want a canceled, unsolved result: %+v", r)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("Solve returned %v after a 100ms deadline", d)
	}
}
