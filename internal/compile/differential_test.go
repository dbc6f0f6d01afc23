package compile_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fp"
	"repro/internal/fplgen"
	"repro/internal/fuzz"
	"repro/internal/interp"
	"repro/internal/ir"
)

// The differential suite holds the flat-code VM to the tree-walking
// interpreter, which is the reference semantics, through the fuzz
// harness's engine oracle: identical results, identical monitor
// observation sequences (order, site IDs, predicates, operand bits),
// identical assertion failures, identical step-budget aborts at every
// budget 1..48, and identical early stops after each of the first 12
// FP-op observations. Any divergence in block fusion, jump offsets,
// instruction fusion, or step accounting shows up here.
var engineCheck = fuzz.EngineCheck{BudgetSweep: 48, EarlyStops: 12}

// checkEngines runs the battery for one entry function over inputs and
// fails on the first divergence.
func checkEngines(t *testing.T, src, fn string, inputs [][]float64) {
	t.Helper()
	if vs := fuzz.CheckEngines(src, fn, inputs, engineCheck); len(vs) > 0 {
		t.Fatal(vs[0])
	}
}

// TestDifferentialFixtures runs the battery over every testdata FPL
// fixture, on every function it declares.
func TestDifferentialFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.fpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata fixtures found: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := ir.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, fn := range mod.Order {
			dim := mod.Funcs[fn].NParams
			if dim == 0 {
				continue
			}
			checkEngines(t, string(src), fn, fplgen.Inputs(rng, dim))
		}
	}
}

// TestDifferentialRandom holds both engines to each other over randomly
// generated modules (internal/fplgen, shared with the fpfuzz harness)
// and random inputs. The tree-walker is the oracle, so the generator is
// free to produce any well-typed terminating program: nested control
// flow, short-circuit booleans, builtins, user calls (the VM threads
// these through its explicit frame stack), and asserts.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20190622))
	n := 150
	if testing.Short() {
		n = 30
	}
	for pi := 0; pi < n; pi++ {
		src := fplgen.Module(rng)
		if _, err := ir.Compile(src); err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		checkEngines(t, src, "f", fplgen.Inputs(rng, 1)[:8])
	}
}

// TestDifferentialAnalysisFindings re-runs a full boundary analysis
// under both engines and asserts the findings are bit-identical: same
// seed, same weak distance values, same sampled minima.
func TestDifferentialAnalysisFindings(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig2.fpl"))
	if err != nil {
		t.Fatal(err)
	}
	results := make([][2]float64, 2)
	for ei, engine := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
		mod, err := ir.Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		it := interp.New(mod)
		it.Engine = engine
		p, err := it.Program("prog")
		if err != nil {
			t.Fatal(err)
		}
		// A deterministic sampling loop over the weak distance stands in
		// for a full backend run without importing internal/opt (kept
		// light; the analysis-level equivalence is covered by the
		// package tests running entirely on the VM engine).
		mon := &countingBoundary{}
		rng := rand.New(rand.NewSource(7))
		var sum float64
		var zeros int
		for i := 0; i < 5000; i++ {
			x := []float64{rng.NormFloat64() * 10}
			w := p.Execute(mon, x)
			sum += w
			if w == 0 {
				zeros++
			}
		}
		results[ei] = [2]float64{sum, float64(zeros)}
	}
	if results[0] != results[1] {
		t.Fatalf("analysis findings diverge: tree=%v vm=%v", results[0], results[1])
	}
}

// countingBoundary is a minimal boundary-style monitor (product of
// |a-b|) implemented locally to keep this package's dependencies lean.
type countingBoundary struct{ w float64 }

func (m *countingBoundary) Reset() { m.w = 1 }
func (m *countingBoundary) Branch(site int, op fp.CmpOp, a, b float64) {
	d := math.Abs(a - b)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		d = math.MaxFloat64
	}
	m.w *= d
}
func (m *countingBoundary) FPOp(int, float64) bool { return false }
func (m *countingBoundary) Value() float64         { return m.w }
