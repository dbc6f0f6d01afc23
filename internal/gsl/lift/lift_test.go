package lift_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fplgen"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/interp"
)

// TestCorpusLifts pins the tentpole acceptance bar: the combined corpus
// compiles through the Go frontend, every natively registered function
// is present in the lifted module with the right arity, and the corpus
// is at least 25 functions strong.
func TestCorpusLifts(t *testing.T) {
	mod, err := gofront.Compile("lift.go", lift.CombinedSource())
	if err != nil {
		t.Fatalf("corpus does not lift: %v", err)
	}
	funcs := lift.Funcs()
	if len(funcs) < 25 {
		t.Fatalf("corpus has %d functions, want >= 25", len(funcs))
	}
	for name, fn := range funcs {
		lf := mod.Func(name)
		if lf == nil {
			t.Errorf("function %s missing from lifted module", name)
			continue
		}
		if lf.NParams != fn.Arity {
			t.Errorf("function %s: lifted arity %d, native arity %d", name, lf.NParams, fn.Arity)
		}
	}
	// The correspondence must hold in both directions: a corpus function
	// that never made it into the native registry would silently shrink
	// the oracle's coverage.
	for _, name := range mod.Order {
		if _, ok := funcs[name]; !ok {
			t.Errorf("lifted function %s missing from the native registry", name)
		}
	}
}

// sameBits is the oracle's equality: bit-identical, except that any
// NaN matches any NaN. NaN payloads are not pinned because x86 NaN
// propagation takes the first source operand's payload and the
// compiler may commute float add/mul operands, so the sign bit of a
// propagated NaN differs between the natively scheduled expression
// and the VM's op-at-a-time evaluation. Every non-NaN result — incl.
// ±Inf, ±0, and subnormals — must match exactly.
func sameBits(a, b uint64) bool {
	if a == b {
		return true
	}
	return math.IsNaN(math.Float64frombits(a)) && math.IsNaN(math.Float64frombits(b))
}

// TestDifferentialOracle is the native-vs-lifted differential contract:
// every corpus function, executed natively (the real compiled Go code),
// through the tree-walking engine and through the VM, must produce
// bit-identical results (see sameBits) over the shared input battery.
func TestDifferentialOracle(t *testing.T) {
	src := lift.CombinedSource()
	mod, err := gofront.Compile("lift.go", src)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}

	rng := rand.New(rand.NewSource(41))
	for _, name := range lift.FuncNames() {
		fn := lift.Funcs()[name]
		inputs := fplgen.Inputs(rng, fn.Arity)

		// Native reference.
		want := make([]uint64, len(inputs))
		for i, x := range inputs {
			want[i] = math.Float64bits(fn.Call(x))
		}

		// Tree walker and VM.
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
			it := interp.New(mod)
			it.Engine = eng
			for i, x := range inputs {
				got, err := it.Run(name, x)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, eng, err)
				}
				if !sameBits(math.Float64bits(got), want[i]) {
					t.Errorf("%s(%v) engine %s: got %x (%g), native %x (%g)",
						name, x, eng, math.Float64bits(got), got,
						want[i], math.Float64frombits(want[i]))
				}
			}
		}
	}
}

// TestBug1Reproduces cross-checks the curated airy finding over the
// lifted corpus: at the paper's trigger input the am22 Chebyshev sum
// vanishes and the error propagation divides by zero, so
// airyModPhaseModErr is +Inf — natively and through the VM.
func TestBug1Reproduces(t *testing.T) {
	x := []float64{lift.Bug1Input}
	native := lift.Funcs()["airyModPhaseModErr"].Call(x)
	if !math.IsInf(native, 1) {
		t.Fatalf("native airyModPhaseModErr(%v) = %g, want +Inf", lift.Bug1Input, native)
	}
	mod, err := gofront.Compile("lift.go", lift.CombinedSource())
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	got, err := interp.New(mod).Run("airyModPhaseModErr", x)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("lifted airyModPhaseModErr(%v) = %g, want +Inf", lift.Bug1Input, got)
	}
}

// TestLiftedOverflowFindsSites runs Algorithm 3 over the lifted Bessel
// and hyperg entry points (the programs `fpanalyze overflow -lang go`
// analyzes over the `fpanalyze gslcorpus` output): each must overflow
// at least one operation site, as its curated port does in Table 3.
func TestLiftedOverflowFindsSites(t *testing.T) {
	mod, err := gofront.Compile("gsl_lift.go", lift.CombinedSource())
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	it := interp.New(mod)
	for i, fn := range []string{"besselKnuScaledAsympxVal", "hyperg2F0Val"} {
		p, err := it.Program(fn)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.DetectOverflows(context.Background(), p, analysis.Spec{
			Seed:  5 + int64(i)*1_000_003,
			Evals: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			t.Errorf("lifted %s: no overflow found (%d rounds, %d evaluations)", fn, rep.Rounds, rep.Evals)
		}
	}
}

// TestCombinedSourceDeterministic: the pipeline content-addresses the
// corpus by sha256, so the combiner must be byte-stable.
func TestCombinedSourceDeterministic(t *testing.T) {
	if lift.CombinedSource() != lift.CombinedSource() {
		t.Fatal("CombinedSource is not deterministic")
	}
}
