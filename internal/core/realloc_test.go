package core_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
)

// TestSolveReallocatesReclaimedBudget: when the backend exits early
// (here: the portfolio scheduler detecting that every stage plateaued
// on a zero-free problem), Solve must convert the unused evaluations
// into bonus restarts — and the whole schedule must stay a pure
// function of the options for every worker count.
func TestSolveReallocatesReclaimedBudget(t *testing.T) {
	w := func(x []float64) float64 { return math.Abs(x[0]) + 1 }
	prob := core.Problem{
		Name: "no-zero",
		Dim:  1,
		NewW: func() core.WeakDistance { return w },
	}
	run := func(workers int) core.Result {
		return core.Solve(context.Background(), prob, core.Options{
			Backend:       &opt.Portfolio{StallWindow: 100},
			Starts:        4,
			EvalsPerStart: 5000,
			Seed:          21,
			Bounds:        []opt.Bound{{Lo: -10, Hi: 10}},
			Workers:       workers,
		})
	}
	r := run(1)
	if r.Found {
		t.Fatalf("found a zero of a zero-free function: %v", r)
	}
	if r.Reclaimed == 0 {
		t.Fatalf("portfolio early exit reclaimed nothing: %+v", r)
	}
	if r.BonusStarts == 0 {
		t.Errorf("reclaimed %d evals funded no bonus starts", r.Reclaimed)
	}
	if r.Restarts != 4+r.BonusStarts {
		t.Errorf("Restarts = %d, want %d base + %d bonus", r.Restarts, 4, r.BonusStarts)
	}
	if len(r.Stages) == 0 {
		t.Error("no aggregated stage attribution")
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); !reflect.DeepEqual(r, got) {
			t.Errorf("workers=%d diverged from workers=1:\n%+v\n%+v", workers, r, got)
		}
	}
}

// TestSolveNoReallocForExhaustingBackend: the default backend always
// runs its budget out on an unsolved problem, so the historical
// schedule — and wire format — is unchanged.
func TestSolveNoReallocForExhaustingBackend(t *testing.T) {
	prob := core.Problem{
		Name: "no-zero",
		Dim:  1,
		NewW: func() core.WeakDistance { return func(x []float64) float64 { return math.Abs(x[0]) + 1 } },
	}
	r := core.Solve(context.Background(), prob, core.Options{
		Starts: 2, EvalsPerStart: 2000, Seed: 4,
		Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
	})
	if r.Reclaimed != 0 || r.BonusStarts != 0 {
		t.Errorf("basinhopping reclaimed budget: %+v", r)
	}
	if r.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", r.Restarts)
	}
	if r.Evals != 2*2000 {
		t.Errorf("Evals = %d, want the full 4000", r.Evals)
	}
	if len(r.Stages) != 0 {
		t.Errorf("single-backend run grew stages: %+v", r.Stages)
	}
}

// TestSolveBonusStartCanSolve: a problem whose zero basin is rarely
// seeded still gets solved when reclaimed budget funds the start that
// lands in it — the point of reallocation.
func TestSolveBonusStartCanSolve(t *testing.T) {
	// Zero only in a narrow pocket; everywhere else a smooth plateau
	// that makes every portfolio stage stall fast.
	w := func(x []float64) float64 {
		if x[0] > 41 && x[0] < 42 {
			return 0
		}
		return math.Abs(x[0])/100 + 1
	}
	prob := core.Problem{Name: "pocket", Dim: 1,
		NewW: func() core.WeakDistance { return w }}
	opts := core.Options{
		Backend:       &opt.Portfolio{StallWindow: 50},
		Starts:        2,
		EvalsPerStart: 4000,
		Seed:          1,
		Bounds:        []opt.Bound{{Lo: -100, Hi: 100}},
		Workers:       1,
	}
	r := core.Solve(context.Background(), prob, opts)
	// The claim under test is determinism plus accounting, not that this
	// exact seed needs the bonus round; but when it solves, the answer
	// must be genuine.
	if r.Found && w(r.X) != 0 {
		t.Errorf("reported solution is not a zero: %v", r.X)
	}
	for _, workers := range []int{2, 3} {
		if got := core.Solve(context.Background(), prob, core.Options{
			Backend:       &opt.Portfolio{StallWindow: 50},
			Starts:        2,
			EvalsPerStart: 4000,
			Seed:          1,
			Bounds:        []opt.Bound{{Lo: -100, Hi: 100}},
			Workers:       workers,
		}); !reflect.DeepEqual(r, got) {
			t.Errorf("workers=%d diverged:\n%+v\n%+v", workers, r, got)
		}
	}
}

// TestSolveChunkedScheduleCountsEveryStart: a schedule longer than one
// chunk still runs every start, with the same result for every worker
// count.
func TestSolveChunkedScheduleCountsEveryStart(t *testing.T) {
	w := func(x []float64) float64 { return math.Abs(x[0]) + 1 }
	prob := core.Problem{Name: "no-zero", Dim: 1,
		NewW: func() core.WeakDistance { return w }}
	run := func(workers int) core.Result {
		return core.Solve(context.Background(), prob, core.Options{
			Backend: &opt.RandomSearch{}, Starts: 5000, EvalsPerStart: 3, Seed: 2,
			Bounds: []opt.Bound{{Lo: -10, Hi: 10}}, Workers: workers,
		})
	}
	r := run(1)
	if r.Restarts != 5000 || r.Evals != 5000*3 {
		t.Errorf("Restarts = %d, Evals = %d, want 5000 and 15000", r.Restarts, r.Evals)
	}
	if got := run(3); !reflect.DeepEqual(r, got) {
		t.Errorf("workers=3 diverged from workers=1:\n%+v\n%+v", r, got)
	}
}
