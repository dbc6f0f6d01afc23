package opt

import (
	"math"
	"reflect"
	"testing"
)

func TestPlateauDetector(t *testing.T) {
	d := newPlateauDetector(100, 0, 100)
	if d.observe(50, 90) {
		t.Error("stalled inside the first window")
	}
	if d.observe(100, 90) {
		t.Error("10% decay over one window flagged as stall")
	}
	if !d.observe(200, 89.5) {
		t.Error("0.5% decay over one window not flagged as stall")
	}

	// From +Inf any finite best is progress; Inf → Inf is a stall.
	d = newPlateauDetector(10, 0, math.Inf(1))
	if d.observe(10, 5) {
		t.Error("Inf → finite flagged as stall")
	}
	d = newPlateauDetector(10, 0, math.Inf(1))
	if !d.observe(10, math.Inf(1)) {
		t.Error("Inf → Inf not flagged as stall")
	}

	// A best pinned at zero cannot decay further: stall.
	d = newPlateauDetector(10, 0, 0)
	if !d.observe(10, 0) {
		t.Error("0 → 0 not flagged as stall")
	}
}

// TestPortfolioEscalatesAndExitsEarly drives the full schedule on a
// zero-free objective: the probe must plateau near the true minimum,
// every racer must get its slice and stall too, and the portfolio must
// then return the unused budget instead of burning it.
func TestPortfolioEscalatesAndExitsEarly(t *testing.T) {
	obj := func(x []float64) float64 { return x[0]*x[0] + 1 }
	p := &Portfolio{}
	r := p.Minimize(obj, 1, Config{
		Seed: 7, MaxEvals: 50000, StopAtZero: true,
		Bounds: []Bound{{Lo: -10, Hi: 10}},
	})
	if r.FoundZero {
		t.Fatalf("found a zero of a zero-free objective: %+v", r)
	}
	if r.Exhausted || r.Evals >= 50000 {
		t.Errorf("no early exit: consumed %d of 50000 evals (exhausted=%v)", r.Evals, r.Exhausted)
	}
	if len(r.Stages) < 2 {
		t.Fatalf("probe never escalated: stages %+v", r.Stages)
	}
	if r.Stages[0].Backend != "neldermead" {
		t.Errorf("probe stage is %q, want neldermead", r.Stages[0].Backend)
	}
	sum := 0
	for _, st := range r.Stages {
		if st.Evals <= 0 {
			t.Errorf("stage %q recorded with no evals", st.Backend)
		}
		sum += st.Evals
	}
	if sum != r.Evals {
		t.Errorf("stage evals sum to %d, result has %d", sum, r.Evals)
	}
	if r.Winner == "" {
		t.Error("no winner attributed")
	}
	if r.F < 1 {
		t.Errorf("best %v below the true minimum 1", r.F)
	}
}

// TestPortfolioShortCircuitsOnZero: under StopAtZero the whole
// portfolio stops at the first exact zero, whichever stage samples it.
func TestPortfolioShortCircuitsOnZero(t *testing.T) {
	obj := func(x []float64) float64 {
		if x[0] < 0 {
			return 0
		}
		return x[0] + 1
	}
	p := &Portfolio{}
	r := p.Minimize(obj, 1, Config{
		Seed: 3, MaxEvals: 100000, StopAtZero: true,
		Bounds: []Bound{{Lo: -10, Hi: 10}},
	})
	if !r.FoundZero {
		t.Fatalf("missed a half-line of zeros: %+v", r)
	}
	if r.Evals >= 100000 {
		t.Errorf("no short-circuit: %d evals", r.Evals)
	}
	if r.Winner == "" || !r.Stages[len(r.Stages)-1].FoundZero && !r.Stages[0].FoundZero {
		zero := false
		for _, st := range r.Stages {
			zero = zero || st.FoundZero
		}
		if !zero {
			t.Errorf("no stage attributed with the zero: %+v", r.Stages)
		}
	}
}

// TestPortfolioDeterministic: two identical runs produce identical
// Results (including stage attribution), and the scheduler behaves as a
// pure function of Config under ParallelStarts for any worker count.
func TestPortfolioDeterministic(t *testing.T) {
	obj := func(x []float64) float64 { return math.Abs(x[0]-2) + 0.5 }
	cfg := Config{Seed: 11, MaxEvals: 6000, Bounds: []Bound{{Lo: -50, Hi: 50}}}
	a := (&Portfolio{}).Minimize(obj, 1, cfg)
	b := (&Portfolio{}).Minimize(obj, 1, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical runs diverged:\n%+v\n%+v", a, b)
	}

	run := func(workers int) []StartResult {
		return ParallelStarts(&Portfolio{}, func(int) Objective {
			return obj
		}, 1, ParallelConfig{
			Starts: 6, Workers: workers, Seed: 13, MaxEvals: 2000,
			Bounds: []Bound{{Lo: -50, Hi: 50}},
		})
	}
	w1 := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(w1, got) {
			t.Errorf("workers=%d diverged from workers=1:\n%+v\n%+v", w, w1, got)
		}
	}
}

// TestPortfolioTinyBudget: budgets smaller than one plateau window must
// still work — the fuzz backend oracle runs every backend at 300 evals.
func TestPortfolioTinyBudget(t *testing.T) {
	obj := func(x []float64) float64 { return x[0]*x[0] + 1 }
	r := (&Portfolio{}).Minimize(obj, 1, Config{
		Seed: 5, MaxEvals: 50, Bounds: []Bound{{Lo: -10, Hi: 10}},
	})
	if r.Evals > 50 {
		t.Errorf("budget overrun: %d > 50", r.Evals)
	}
	if !r.Exhausted {
		t.Errorf("tiny budget not exhausted: %+v", r)
	}
}

// TestPortfolioRecursionGuard: the fixed lineup is the neldermead
// probe, then every other registered backend once, and never nests
// portfolio.
func TestPortfolioRecursionGuard(t *testing.T) {
	names, stages := lineup()
	want := []string{"neldermead", "basinhopping", "de", "powell", "random", "anneal"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("lineup = %v, want %v", names, want)
	}
	for i, m := range stages {
		if _, nested := m.(*Portfolio); nested {
			t.Errorf("stage %d (%s) is a nested portfolio", i, names[i])
		}
	}

	obj := func(x []float64) float64 { return x[0] * x[0] }
	r := (&Portfolio{}).Minimize(obj, 1, Config{
		Seed: 9, MaxEvals: 5000, StopAtZero: true, Bounds: []Bound{{Lo: -1, Hi: 1}},
	})
	for _, st := range r.Stages {
		if st.Backend == "portfolio" {
			t.Fatalf("nested portfolio stage: %+v", r.Stages)
		}
	}
	if len(r.Stages) > 0 && r.Stages[0].Backend != "neldermead" {
		t.Errorf("probe stage is %q, want neldermead", r.Stages[0].Backend)
	}
}

// TestPortfolioRegistry: the backend is reachable through the registry
// and its runs land in the EvalCounts ledger with per-stage
// attribution.
func TestPortfolioRegistry(t *testing.T) {
	m, err := BackendByName("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "Portfolio" {
		t.Errorf("Name() = %q", m.Name())
	}

	obj := func(x []float64) float64 { return x[0]*x[0] + 1 }
	r := m.Minimize(obj, 1, Config{Seed: 2, MaxEvals: 3000, Bounds: []Bound{{Lo: -5, Hi: 5}}})
	if len(r.Stages) == 0 {
		t.Fatalf("registry portfolio produced no stages: %+v", r)
	}
	counts := EvalCounts()
	if counts["portfolio"] <= 0 {
		t.Errorf("ledger has no portfolio total: %v", counts)
	}
	if counts["portfolio/"+r.Stages[0].Backend] <= 0 {
		t.Errorf("ledger has no stage attribution for %q: %v", r.Stages[0].Backend, counts)
	}
}
