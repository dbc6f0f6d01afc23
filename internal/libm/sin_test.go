package libm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fp"
	"repro/internal/instrument"
)

func TestSinAccuracy(t *testing.T) {
	// The port's values should agree with math.Sin to high relative
	// accuracy over the first four branch ranges.
	cases := []float64{
		0, 1e-9, 1e-8, 0.1, -0.5, 0.85, 0.9, 1.5, -2.0, 2.4,
		3.0, -10.0, 100.0, 12345.678, -1e6, 1e7, 1.05e8, 2e8,
	}
	for _, x := range cases {
		got := Sin(x)
		want := math.Sin(x)
		// The remainder-based reduction loses absolute accuracy
		// proportional to |x|·ulp(2π); scale the tolerance accordingly.
		tol := 1e-9 + fp.Abs(x)*5e-16
		if diff := math.Abs(got - want); diff > tol && diff > 1e-9*math.Abs(want) {
			t.Errorf("Sin(%g) = %v, want %v (diff %g)", x, got, want, diff)
		}
	}
	// The huge branch (|x| ≥ 1.054e8) against independent references:
	// the first ten are Go's math/huge_test.go values, computed at 4096
	// bits of working precision; sin(1e22) is the classic reduction test.
	huge := []struct{ x, want float64 }{
		{1 << 28, -0.98619821183697566},
		{1 << 29, 0.32656766301856334},
		{1 << 30, -0.61732641504604217},
		{1 << 35, -0.64443035102329113},
		{1 << 120, 0.37782010936075202},
		{1 << 240, -0.35197227524865778},
		{1 << 480, 0.95917070894368716},
		{1234567891234567 << 180, 0.98926032637023618},
		{1234567891234567 << 300, -0.60718488235646949},
		{math.MaxFloat64, 0.00496195478918406},
		{1e22, -0.8522008497671888},
	}
	for _, c := range huge {
		for _, sign := range []float64{1, -1} {
			x, want := sign*c.x, sign*c.want
			if KOf(x) < SinThresholds[SinBranchLarge] {
				t.Fatalf("%g is not in the huge branch", x)
			}
			if got := Sin(x); math.Abs(got-want) > 1e-14*math.Abs(want) {
				t.Errorf("Sin(%g) = %v, want %v", x, got, want)
			}
		}
	}
}

func TestSinSpecialValues(t *testing.T) {
	if !math.IsNaN(Sin(math.NaN())) {
		t.Error("Sin(NaN) should be NaN")
	}
	if !math.IsNaN(Sin(math.Inf(1))) || !math.IsNaN(Sin(math.Inf(-1))) {
		t.Error("Sin(±Inf) should be NaN (x/x path)")
	}
	if Sin(0) != 0 {
		t.Error("Sin(0) != 0")
	}
	if Sin(1e-10) != 1e-10 {
		t.Error("tiny branch must return x itself")
	}
}

func TestSinOddSymmetry(t *testing.T) {
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return Sin(-x) == -Sin(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestSinRangeBound(t *testing.T) {
	// |sin| <= 1 + tiny slack across all finite inputs (every branch
	// reduces its argument genuinely, so the result stays bounded —
	// unlike GSL's cos, see internal/gsl).
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(Sin(x)) <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestKOfMatchesBranchRanges(t *testing.T) {
	// The dispatch key reproduces glibc's range boundaries: crossing
	// each reference |x| flips the corresponding comparison.
	for i, ref := range SinBoundaryRefs[:4] {
		below := math.Nextafter(ref, 0)
		if KOf(below) >= SinThresholds[i] {
			t.Errorf("branch %d: k(%g) = %#x, want < %#x", i, below, KOf(below), SinThresholds[i])
		}
		if KOf(ref) < SinThresholds[i] {
			t.Errorf("branch %d: k(%g) = %#x, want >= %#x", i, ref, KOf(ref), SinThresholds[i])
		}
	}
}

func TestSinBoundaryRefsHitExactly(t *testing.T) {
	// Each reference boundary value (and its negation) makes k == c at
	// its branch: the Table 2 boundary conditions.
	for i, ref := range SinBoundaryRefs[:4] {
		for _, x := range []float64{ref, -ref} {
			if KOf(x) != SinThresholds[i] {
				t.Errorf("branch %d: k(%g) = %#x, want == %#x", i, x, KOf(x), SinThresholds[i])
			}
		}
	}
}

func TestSinProgramBranchObservation(t *testing.T) {
	p := SinProgram()
	wit := &instrument.BoundaryWitness{}
	// The first reachable boundary condition: x with k == 0x3e500000.
	p.Execute(wit, []float64{SinBoundaryRefs[0]})
	if len(wit.Sites()) != 1 || wit.Sites()[0] != SinBranchTiny {
		t.Errorf("witness sites = %v, want [tiny]", wit.Sites())
	}
	// A non-boundary input hits nothing.
	p.Execute(wit, []float64{0.5})
	if len(wit.Sites()) != 0 {
		t.Errorf("witness sites = %v, want none", wit.Sites())
	}
}

func TestSinBoundaryWeakDistance(t *testing.T) {
	p := SinProgram()
	w := p.WeakDistance(&instrument.Boundary{})
	for i, ref := range SinBoundaryRefs[:4] {
		if got := w([]float64{ref}); got != 0 {
			t.Errorf("W(ref[%d]=%g) = %v, want 0", i, ref, got)
		}
		if got := w([]float64{-ref}); got != 0 {
			t.Errorf("W(-ref[%d]) = %v, want 0", i, got)
		}
	}
	if got := w([]float64{0.5}); got <= 0 {
		t.Errorf("W(0.5) = %v, want > 0", got)
	}
	// The last branch's boundary is unreachable in the finite doubles:
	// no finite x has k == 0x7ff00000.
	if KOf(math.MaxFloat64) >= SinThresholds[4] {
		t.Error("MaxFloat64 should not reach the huge threshold")
	}
}

func TestSinBranchChainObservation(t *testing.T) {
	// An input in range i evaluates exactly branches 0..i (else-if
	// chain), which determines the multiplicative weak-distance factors.
	p := SinProgram()
	counts := map[int]int{}
	mon := &countingMonitor{counts: counts}
	p.Execute(mon, []float64{100.0}) // k in the "large" range (branch 3 taken)
	for site := 0; site <= 3; site++ {
		if counts[site] != 1 {
			t.Errorf("site %d observed %d times, want 1", site, counts[site])
		}
	}
	if counts[4] != 0 {
		t.Errorf("site 4 observed %d times, want 0 (chain stopped)", counts[4])
	}
}

type countingMonitor struct{ counts map[int]int }

func (m *countingMonitor) Reset() {}
func (m *countingMonitor) Branch(site int, op fp.CmpOp, a, b float64) {
	m.counts[site]++
}
func (m *countingMonitor) FPOp(int, float64) bool { return false }
func (m *countingMonitor) Value() float64         { return 0 }
