package opt

import (
	"math"
	"strings"
	"testing"
)

// sphere has its unique minimum 0 at the origin.
func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// shiftedAbs has its unique zero at x = 3 and is non-smooth there.
func shiftedAbs(x []float64) float64 {
	return math.Abs(x[0] - 3)
}

// twoBasins has zeros at x = -3 and x = 2 separated by a hill, modeled on
// the paper's Fig. 3 weak distance shape.
func twoBasins(x []float64) float64 {
	return math.Abs(x[0]+3) * math.Abs(x[0]-2)
}

func boundedCfg(lo, hi float64, evals int) Config {
	return Config{
		Seed:       1,
		MaxEvals:   evals,
		Bounds:     []Bound{{lo, hi}},
		StopAtZero: true,
	}
}

func globalBackends() []Minimizer {
	return []Minimizer{
		&Basinhopping{},
		&DifferentialEvolution{InitSpan: 100},
		&Powell{},
		&RandomSearch{},
	}
}

// TestBackendByName: canonical names and aliases resolve, and an
// unknown spelling is an error listing the valid names.
func TestBackendByName(t *testing.T) {
	for _, name := range []string{"", "basinhopping", "bh", "de", "powell", "random", "nm", "sa"} {
		if _, err := BackendByName(name); err != nil {
			t.Errorf("BackendByName(%q): %v", name, err)
		}
	}
	if _, err := BackendByName("gradient-descent"); err == nil || !strings.Contains(err.Error(), "basinhopping") {
		t.Errorf("unknown backend: %v", err)
	}
}

func TestBackendsOnSphereBounded(t *testing.T) {
	for _, m := range []Minimizer{&Basinhopping{}, &DifferentialEvolution{InitSpan: 100}, &Powell{}} {
		cfg := Config{Seed: 1, MaxEvals: 20000, Bounds: []Bound{{-50, 50}, {-50, 50}}}
		r := m.Minimize(sphere, 2, cfg)
		if r.F > 1e-6 {
			t.Errorf("%s: sphere min %v at %v, want near 0", m.Name(), r.F, r.X)
		}
	}
}

func TestBackendsFindExactZeroOfAbs(t *testing.T) {
	// |x-3| has an exact floating-point zero; graded distance should let
	// every real backend find it (random search merely gets close).
	for _, m := range []Minimizer{&Basinhopping{}, &Powell{}} {
		r := m.Minimize(shiftedAbs, 1, boundedCfg(-100, 100, 50000))
		if !r.FoundZero {
			t.Errorf("%s: did not find exact zero, best %v at %v after %d evals",
				m.Name(), r.F, r.X, r.Evals)
		}
		if r.FoundZero && r.X[0] != 3 {
			t.Errorf("%s: zero at %v, want exactly 3", m.Name(), r.X[0])
		}
	}
}

func TestBasinhoppingEscapesLocalBasins(t *testing.T) {
	// Start far from either zero; basinhopping must hop to one of them.
	bh := &Basinhopping{}
	cfg := boundedCfg(-1000, 1000, 60000)
	r := bh.MinimizeFrom(twoBasins, []float64{500}, cfg)
	if !r.FoundZero {
		t.Fatalf("basinhopping best %v at %v", r.F, r.X)
	}
	got := r.X[0]
	if got != -3 && got != 2 {
		t.Errorf("zero at %v, want -3 or 2", got)
	}
}

func TestStopAtZeroHalts(t *testing.T) {
	evals := 0
	obj := func(x []float64) float64 {
		evals++
		return 0 // every point is a zero
	}
	r := (&Basinhopping{}).Minimize(obj, 1, Config{Seed: 7, MaxEvals: 100000, StopAtZero: true})
	if !r.FoundZero {
		t.Fatal("zero not reported")
	}
	if evals > 3 {
		t.Errorf("stop-at-zero consumed %d evals, want immediate halt", evals)
	}
}

func TestBudgetRespected(t *testing.T) {
	for _, m := range globalBackends() {
		evals := 0
		obj := func(x []float64) float64 {
			evals++
			return 1 + sphere(x) // never zero
		}
		cfg := Config{Seed: 3, MaxEvals: 500, Bounds: []Bound{{-10, 10}, {-10, 10}}}
		r := m.Minimize(obj, 2, cfg)
		if evals > 500+60 { // small slack for in-flight line searches
			t.Errorf("%s: consumed %d evals, budget 500", m.Name(), evals)
		}
		if r.Evals != evals {
			t.Errorf("%s: Result.Evals=%d, actual %d", m.Name(), r.Evals, evals)
		}
		// Local backends (Powell) may legitimately converge before the
		// budget; global ones must consume it on a zero-free objective.
		if !r.Exhausted && m.Name() != "Powell" {
			t.Errorf("%s: expected exhausted budget", m.Name())
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, m := range globalBackends() {
		cfg := boundedCfg(-100, 100, 3000)
		r1 := m.Minimize(twoBasins, 1, cfg)
		r2 := m.Minimize(twoBasins, 1, cfg)
		if r1.F != r2.F || r1.Evals != r2.Evals {
			t.Errorf("%s: nondeterministic: (%v,%d) vs (%v,%d)",
				m.Name(), r1.F, r1.Evals, r2.F, r2.Evals)
		}
		if len(r1.X) != len(r2.X) {
			t.Fatalf("%s: result dim mismatch", m.Name())
		}
		for i := range r1.X {
			if r1.X[i] != r2.X[i] {
				t.Errorf("%s: point mismatch at dim %d", m.Name(), i)
			}
		}
	}
}

func TestSeedChangesSampling(t *testing.T) {
	a := (&Basinhopping{}).Minimize(twoBasins, 1, Config{Seed: 1, MaxEvals: 2000, Bounds: []Bound{{-100, 100}}})
	b := (&Basinhopping{}).Minimize(twoBasins, 1, Config{Seed: 2, MaxEvals: 2000, Bounds: []Bound{{-100, 100}}})
	if a.Evals == b.Evals && a.F == b.F && len(a.X) == len(b.X) && len(a.X) > 0 && a.X[0] == b.X[0] {
		t.Skip("identical outcome across seeds is possible but unlikely; skipping rather than flaking")
	}
}

func TestTraceRecordsAllEvaluations(t *testing.T) {
	tr := &Trace{}
	cfg := Config{Seed: 5, MaxEvals: 300, Bounds: []Bound{{-10, 10}}, Trace: tr}
	r := (&DifferentialEvolution{}).Minimize(sphere, 1, cfg)
	if tr.Len() != r.Evals {
		t.Errorf("trace length %d != evals %d", tr.Len(), r.Evals)
	}
	ss := tr.Samples()
	for i, s := range ss {
		if s.N != i+1 {
			t.Fatalf("sample %d has N=%d", i, s.N)
		}
		if len(s.X) != 1 {
			t.Fatalf("sample %d has dim %d", i, len(s.X))
		}
	}
}

func TestTraceCap(t *testing.T) {
	tr := &Trace{Cap: 50}
	cfg := Config{Seed: 5, MaxEvals: 300, Bounds: []Bound{{-10, 10}}, Trace: tr}
	(&RandomSearch{}).Minimize(sphere, 1, cfg)
	if got := len(tr.Samples()); got != 50 {
		t.Errorf("stored %d samples, want cap 50", got)
	}
	if tr.Len() != 300 {
		t.Errorf("counted %d, want 300", tr.Len())
	}
}

func TestTraceZeros(t *testing.T) {
	tr := &Trace{}
	tr.record([]float64{1}, 0.5)
	tr.record([]float64{2}, 0)
	tr.record([]float64{3}, 0)
	if got := len(tr.Zeros()); got != 2 {
		t.Errorf("Zeros() returned %d, want 2", got)
	}
}

func TestBoundsRespected(t *testing.T) {
	for _, m := range globalBackends() {
		violated := false
		obj := func(x []float64) float64 {
			if x[0] < -5 || x[0] > 5 {
				violated = true
			}
			return 1 + x[0]*x[0]
		}
		m.Minimize(obj, 1, Config{Seed: 11, MaxEvals: 2000, Bounds: []Bound{{-5, 5}}})
		if violated {
			t.Errorf("%s: sampled outside bounds", m.Name())
		}
	}
}

func TestNaNObjectiveHandled(t *testing.T) {
	// Objectives that return NaN in part of the domain must not poison
	// best-so-far tracking.
	obj := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return math.Abs(x[0] - 1)
	}
	r := (&Basinhopping{}).Minimize(obj, 1, boundedCfg(-10, 10, 30000))
	if math.IsNaN(r.F) {
		t.Fatal("best value is NaN")
	}
	if !r.FoundZero {
		t.Errorf("expected zero at 1, got %v at %v", r.F, r.X)
	}
}

func TestFullRangeSamplingCrossesExponents(t *testing.T) {
	// With the default full-range bound, random sampling must produce
	// both tiny and huge magnitudes — the property the FP analyses rely
	// on.
	sawSmall, sawLarge := false, false
	obj := func(x []float64) float64 {
		a := math.Abs(x[0])
		if a > 0 && a < 1e-100 {
			sawSmall = true
		}
		if a > 1e100 {
			sawLarge = true
		}
		return 1
	}
	(&RandomSearch{}).Minimize(obj, 1, Config{Seed: 13, MaxEvals: 4000})
	if !sawSmall || !sawLarge {
		t.Errorf("full-range sampling missed exponent regimes: small=%v large=%v", sawSmall, sawLarge)
	}
}

func TestBasinhoppingReachesHugeMagnitudes(t *testing.T) {
	// Overflow detection requires walking to ~1e308 even from a modest
	// start: minimize MAX - |4*x*x| (the paper's Bessel l2 distance).
	obj := func(x []float64) float64 {
		v := 4 * x[0] * x[0]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 0
		}
		a := math.Abs(v)
		if a >= math.MaxFloat64 {
			return 0
		}
		return math.MaxFloat64 - a
	}
	r := (&Basinhopping{}).MinimizeFrom(obj, []float64{1.0},
		Config{Seed: 17, MaxEvals: 200000, StopAtZero: true})
	if !r.FoundZero {
		t.Fatalf("overflow objective not driven to zero; best %v at %v after %d evals",
			r.F, r.X, r.Evals)
	}
	if a := math.Abs(r.X[0]); a < 1e150 {
		t.Errorf("zero at |x|=%v, expected ~1e154+", a)
	}
}

func TestPowellFindsSomeZero(t *testing.T) {
	// Powell is local: it finds a zero reachable by line search from the
	// start, not necessarily every zero (Table 1 shape: Powell found 1.0
	// and 2.0 but missed -3.0).
	p := &Powell{}
	r := p.MinimizeFrom(twoBasins, []float64{5}, boundedCfg(-1000, 1000, 20000))
	if !r.FoundZero {
		t.Fatalf("Powell failed: best %v at %v", r.F, r.X)
	}
	if got := r.X[0]; got != 2 && got != -3 {
		t.Errorf("Powell reached %v, expected one of the zeros {-3, 2}", got)
	}
}

func TestNelderMeadLocalConvergence(t *testing.T) {
	nm := &NelderMead{}
	r := nm.MinimizeFrom(sphere, []float64{3, -4}, Config{Seed: 1, MaxEvals: 5000, Bounds: []Bound{{-10, 10}, {-10, 10}}})
	if r.F > 1e-10 {
		t.Errorf("NM stalled: f=%v at %v", r.F, r.X)
	}
}

func TestBoundClamp(t *testing.T) {
	b := Bound{-1, 1}
	cases := []struct{ in, want float64 }{
		{0.5, 0.5}, {-3, -1}, {3, 1}, {math.NaN(), -1},
	}
	for _, c := range cases {
		if got := b.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	fr := FullRange
	if got := fr.Clamp(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("FullRange.Clamp(+Inf) = %v", got)
	}
	if got := fr.Clamp(math.NaN()); got != 0 {
		t.Errorf("FullRange.Clamp(NaN) = %v", got)
	}
}

func TestDistinct3(t *testing.T) {
	rng := newTestRNG()
	for i := 0; i < 200; i++ {
		a, b, c := distinct3(rng, 5, i%5)
		if a == b || b == c || a == c || a == i%5 || b == i%5 || c == i%5 {
			t.Fatalf("distinct3 produced collision: %d %d %d (i=%d)", a, b, c, i%5)
		}
	}
}

func TestSimulatedAnnealingOnBasics(t *testing.T) {
	sa := &SimulatedAnnealing{}
	r := sa.Minimize(shiftedAbs, 1, boundedCfg(-100, 100, 30000))
	if !r.FoundZero {
		t.Errorf("SA missed the zero of |x-3|: best %v at %v", r.F, r.X)
	}
	// Determinism.
	a := sa.Minimize(twoBasins, 1, boundedCfg(-100, 100, 5000))
	b := sa.Minimize(twoBasins, 1, boundedCfg(-100, 100, 5000))
	if a.F != b.F || a.Evals != b.Evals {
		t.Errorf("SA nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSimulatedAnnealingBudget(t *testing.T) {
	evals := 0
	obj := func(x []float64) float64 { evals++; return 1 + sphere(x) }
	(&SimulatedAnnealing{}).Minimize(obj, 1, Config{Seed: 1, MaxEvals: 700, Bounds: []Bound{{-5, 5}}})
	if evals > 760 {
		t.Errorf("SA consumed %d evals, budget 700", evals)
	}
}
