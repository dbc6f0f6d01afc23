// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§6), plus ablation
// benchmarks for four design choices: stopping at the first zero, ULP
// versus real-valued distances, the MO backend, and double-double
// accumulation of the boundary distance. Run with
//
//	go test -bench=. -benchmem
//
// Absolute timings differ from the paper (our substrate is a pure-Go
// simulator, not the authors' C/LLVM/SciPy stack); the benchmarks
// document the shape: which analyses solve their problems within which
// budgets, and how the ablations compare.
package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gsl"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libm"
	"repro/internal/opt"
	"repro/internal/paper"
	"repro/internal/progs"
	"repro/internal/sat"
)

// BenchmarkTable1_BackendSanity regenerates Table 1: three MO backends
// on the boundary and path weak distances of Fig. 2.
func BenchmarkTable1_BackendSanity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := paper.Table1(int64(i)+1, 12000)
		if res.Rows[0].BoundaryMin != 0 {
			b.Fatal("Basinhopping failed the sanity check")
		}
	}
}

// BenchmarkFig3_BoundarySampling regenerates Figure 3: the boundary
// weak-distance graph and a Basinhopping sampling run.
func BenchmarkFig3_BoundarySampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := paper.Fig3(int64(i)+1, 4000)
		if f.ZeroSamples == 0 {
			b.Fatal("no boundary values sampled")
		}
	}
}

// BenchmarkFig4_PathSampling regenerates Figure 4: the path
// weak-distance graph and sampling.
func BenchmarkFig4_PathSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := paper.Fig4(int64(i)+1, 4000)
		if f.ZeroSamples == 0 {
			b.Fatal("no path solutions sampled")
		}
	}
}

// BenchmarkFig7_CharacteristicAblation regenerates the Fig. 7 ablation:
// the graded weak distance must solve the problem; the flat
// characteristic function degenerates into random testing.
func BenchmarkFig7_CharacteristicAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.Fig7(int64(i)+1, 20000)
		if !r.GradedFound {
			b.Fatal("graded weak distance failed")
		}
	}
}

// BenchmarkFig9_SinConvergence regenerates the Figure 9 series: number
// of sin boundary conditions triggered versus samples. The run is sized
// to reach all 8 reachable conditions.
func BenchmarkFig9_SinConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.SinBoundaryStudyWorkers(int64(i)+1, 64, 4000, 0)
		n := len(s.Report.Progress)
		if n == 0 || s.Report.Progress[n-1].Conditions < 8 {
			b.Fatalf("reached %d conditions, want 8", s.Report.Progress[n-1].Conditions)
		}
	}
}

// BenchmarkTable2_SinBVA regenerates Table 2: per-condition boundary
// value statistics for the glibc sin port.
func BenchmarkTable2_SinBVA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.SinBoundaryStudyWorkers(int64(i)+1, 64, 4000, 0)
		if s.Report.SoundnessViolations != 0 {
			b.Fatal("unsound boundary values")
		}
		_ = s.FormatTable2()
	}
}

// BenchmarkTable3_Bessel runs Algorithm 3 on the Bessel benchmark (one
// Table 3 row; the |O| >= 21 headline).
func BenchmarkTable3_Bessel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := analysis.DetectOverflows(context.Background(), gsl.BesselProgram(), analysis.Spec{
			Seed: int64(i) + 1, Evals: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) < 21 {
			b.Fatalf("found %d overflows, want >= 21", len(rep.Findings))
		}
	}
}

// BenchmarkTable3_Hyperg runs Algorithm 3 on the hyperg benchmark.
func BenchmarkTable3_Hyperg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := analysis.DetectOverflows(context.Background(), gsl.Hyperg2F0Program(), analysis.Spec{
			Seed: int64(i) + 1, Evals: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			b.Fatal("no overflows found")
		}
	}
}

// BenchmarkTable3_Airy runs Algorithm 3 on the Airy benchmark.
func BenchmarkTable3_Airy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := analysis.DetectOverflows(context.Background(), gsl.AiryAiProgram(), analysis.Spec{
			Seed: int64(i) + 1, Evals: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			b.Fatal("no overflows found")
		}
	}
}

// BenchmarkTable4_BesselPerOp regenerates Table 4: per-operation
// overflow inputs for the Bessel function, verifying each finding by
// replay.
func BenchmarkTable4_BesselPerOp(b *testing.B) {
	p := gsl.BesselProgram()
	for i := 0; i < b.N; i++ {
		rep, err := analysis.DetectOverflows(context.Background(), p, analysis.Spec{
			Seed: int64(i) + 1, Evals: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		mon := instrument.NewOverflow()
		for _, f := range rep.Findings {
			mon.L = instrument.SiteSet{}
			for _, op := range p.Ops {
				if op.ID != f.Site {
					mon.L.Add(op.ID)
				}
			}
			if p.Execute(mon, f.Input) != 0 {
				b.Fatalf("finding at site %d does not replay", f.Site)
			}
		}
	}
}

// BenchmarkTable5_InconsistencyReplay regenerates Table 5: the full GSL
// pipeline with inconsistency classification and confirmed-bug replay.
func BenchmarkTable5_InconsistencyReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := paper.GSLStudyWorkers(int64(i)+1, 6000, 0)
		var airy paper.Table3Row
		for _, r := range res.Rows {
			if r.File == "airy" {
				airy = r
			}
		}
		if airy.Bugs != 2 {
			b.Fatalf("airy bugs = %d, want 2", airy.Bugs)
		}
	}
}

// --- Ablation benchmarks: each runs one design choice against its alternative ---

// BenchmarkAblation_StopAtZero measures the early-termination contract
// (§4.4 remark): stopping the moment W = 0 is sampled versus running
// the full budget.
func BenchmarkAblation_StopAtZero(b *testing.B) {
	p := progs.Fig2()
	w := opt.Objective(p.WeakDistance(&instrument.Boundary{}))
	cfgBase := opt.Config{MaxEvals: 20000, Bounds: []opt.Bound{{Lo: -100, Hi: 100}}}
	b.Run("stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := cfgBase
			cfg.Seed = int64(i) + 1
			cfg.StopAtZero = true
			(&opt.Basinhopping{}).Minimize(w, 1, cfg)
		}
	})
	b.Run("nostop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := cfgBase
			cfg.Seed = int64(i) + 1
			(&opt.Basinhopping{}).Minimize(w, 1, cfg)
		}
	})
}

// BenchmarkAblation_ULPvsReal compares the ULP and real-valued atom
// distances on the motivating SAT constraint (§7 / Limitation 2).
func BenchmarkAblation_ULPvsReal(b *testing.B) {
	f, _, err := sat.Parse("x < 1 && x + 1 >= 2")
	if err != nil {
		b.Fatal(err)
	}
	bounds := []opt.Bound{{Lo: -4, Hi: 4}}
	run := func(b *testing.B, real bool) {
		for i := 0; i < b.N; i++ {
			r := sat.Solve(context.Background(), f, core.Options{
				Seed: int64(i) + 1, Starts: 4, EvalsPerStart: 10000,
				Bounds: bounds,
			}, real)
			if r.Verdict != sat.Sat {
				b.Fatal("constraint not solved")
			}
		}
	}
	b.Run("ulp", func(b *testing.B) { run(b, false) })
	b.Run("real", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_Backends compares the MO backends on the Fig. 2
// boundary problem under equal budgets.
func BenchmarkAblation_Backends(b *testing.B) {
	p := progs.Fig2()
	w := opt.Objective(p.WeakDistance(&instrument.Boundary{}))
	for _, m := range []opt.Minimizer{
		&opt.Basinhopping{},
		&opt.DifferentialEvolution{InitSpan: 100},
		&opt.Powell{},
		&opt.RandomSearch{},
		&opt.SimulatedAnnealing{},
	} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Minimize(w, 1, opt.Config{
					Seed: int64(i) + 1, MaxEvals: 10000,
					Bounds:     []opt.Bound{{Lo: -100, Hi: 100}},
					StopAtZero: true,
				})
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkWeakDistanceEval measures the cost of one weak-distance
// evaluation on the native ports (the unit the MO budgets are
// denominated in). bessel/overflow-stop overflows at its second of 23
// operations: the port runs on to its end past the stop, which the
// latched monitor ignores.
func BenchmarkWeakDistanceEval(b *testing.B) {
	cases := []struct {
		name string
		w    func([]float64) float64
		x    []float64
	}{
		{"fig2/boundary", progs.Fig2().WeakDistance(&instrument.Boundary{}), []float64{0.5}},
		{"sin/boundary", libm.SinProgram().WeakDistance(&instrument.Boundary{}), []float64{0.5}},
		{"bessel/overflow", gsl.BesselProgram().WeakDistance(instrument.NewOverflow()), []float64{1.5, 2.5}},
		{"bessel/overflow-stop", gsl.BesselProgram().WeakDistance(instrument.NewOverflow()), []float64{1e200, 2.5}},
		{"airy/overflow", gsl.AiryAiProgram().WeakDistance(instrument.NewOverflow()), []float64{-1.5}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.w(c.x)
			}
		})
	}
}

// BenchmarkEvalEngine measures one instrumented objective evaluation of
// each FPL fixture under both execution engines: the compiled flat-code
// VM (the default) against the tree-walking reference interpreter. This
// is the unit every analysis budget is denominated in; the VM side must
// report 0 allocs/op. Run with
//
//	go test -bench=BenchmarkEvalEngine -benchmem
func BenchmarkEvalEngine(b *testing.B) {
	cases := []struct {
		file string // testdata fixture
		fn   string // entry function ("" = first)
		x    []float64
	}{
		{"fig2.fpl", "prog", []float64{0.5}},
		{"newton.fpl", "newton_sqrt", []float64{2.0}},
		{"sum3.fpl", "prog", []float64{0.1, 0.2, 0.3}},
		{"sin_fig8.fpl", "sin_dispatch", []float64{0.5}},
	}
	for _, c := range cases {
		src, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			b.Fatal(err)
		}
		mod, err := ir.Compile(string(src))
		if err != nil {
			b.Fatalf("%s: %v", c.file, err)
		}
		for _, engine := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
			it := interp.New(mod)
			it.Engine = engine
			p, err := it.Program(c.fn)
			if err != nil {
				b.Fatal(err)
			}
			mon := &instrument.Boundary{}
			name := strings.TrimSuffix(c.file, ".fpl") + "/" + engine.String()
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.Execute(mon, c.x)
				}
			})
		}
	}
}

// BenchmarkInterpreterVsNative compares the DSL-interpreted Fig. 2
// against the native port under the same monitor (the cost of the
// compiler substrate).
func BenchmarkInterpreterVsNative(b *testing.B) {
	const src = `
func prog(x double) {
    if (x <= 1.0) { x = x + 1.0; }
    var y double = x * x;
    if (y <= 4.0) { x = x - 1.0; }
}`
	mod, err := ir.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	dsl, err := interp.New(mod).Program("prog")
	if err != nil {
		b.Fatal(err)
	}
	native := progs.Fig2()
	mon := &instrument.Boundary{}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dsl.Execute(mon, []float64{0.5})
		}
	})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			native.Execute(mon, []float64{0.5})
		}
	})
}

// BenchmarkXSatMotivating measures end-to-end SAT solving of the §1
// constraint.
func BenchmarkXSatMotivating(b *testing.B) {
	f, _, err := sat.Parse("x < 1 && x + 1 >= 2")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sat.Solve(context.Background(), f, core.Options{
			Seed: int64(i) + 1, Starts: 4, EvalsPerStart: 10000,
			Bounds: []opt.Bound{{Lo: -4, Hi: 4}},
		}, false)
		if r.Verdict != sat.Sat {
			b.Fatal("not solved")
		}
	}
}

// --- Parallel multi-start engine benchmarks ---

// benchWorkerCounts is the serial-vs-parallel comparison axis: always
// workers=1, plus the full pool when the host actually has one.
func benchWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkParallelBoundary measures the parallel multi-start engine on
// boundary value analysis of the glibc sin port (Starts restarts of the
// §4.2 minimization): the serial path (workers=1) against the full
// worker pool. Findings are identical in both runs — per-start zeros
// merge in start order — so the ratio is pure wall-clock speedup.
func BenchmarkParallelBoundary(b *testing.B) {
	p := libm.SinProgram()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := analysis.BoundaryValues(context.Background(), p, analysis.Spec{
					Seed: int64(i) + 1, Starts: 32, Evals: 4000,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.BoundaryValues == 0 {
					b.Fatal("no boundary values sampled")
				}
			}
		})
	}
}

// BenchmarkParallelReach measures the parallel Algorithm 2 driver on a
// deliberately hard path problem (unreachable target, so every restart
// runs its full budget — the worst case a serial loop pays in full).
func BenchmarkParallelReach(b *testing.B) {
	p := progs.Fig2()
	// y <= 4 taken with x <= 1 not taken requires x in (1, 2]; shrink
	// the search box away from it so the budget is always exhausted.
	target := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: false},
		{Site: progs.Fig2BranchY, Taken: true},
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := analysis.ReachPath(context.Background(), p, analysis.Spec{
					Path: target,
					Seed: int64(i) + 1, Starts: 16, Evals: 4000,
					Bounds:  []opt.Bound{{Lo: 3, Hi: 1000}},
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.Found {
					b.Fatal("unreachable path reported found")
				}
			}
		})
	}
}

// BenchmarkParallelOverflowStall measures speculative round execution
// in Algorithm 3's stall phase (every op tracked or given up, rounds
// make no progress — exactly where speculation pays).
func BenchmarkParallelOverflowStall(b *testing.B) {
	p := gsl.BesselProgram()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := analysis.DetectOverflows(context.Background(), p, analysis.Spec{
					Seed: int64(i) + 1, Evals: 6000, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Findings) == 0 {
					b.Fatal("no overflows found")
				}
			}
		})
	}
}

// BenchmarkCoverageFig2 measures CoverMe-style branch coverage on
// Fig. 2 (Instance 4).
func BenchmarkCoverageFig2(b *testing.B) {
	p := progs.Fig2()
	for i := 0; i < b.N; i++ {
		rep, err := analysis.Cover(context.Background(), p, analysis.Spec{
			Seed: int64(i) + 1, Bounds: []opt.Bound{{Lo: -1000, Hi: 1000}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Ratio() != 1 {
			b.Fatalf("coverage %v", rep.Ratio())
		}
	}
}

// BenchmarkSolve is the portfolio-scheduler comparison suite: every
// registered backend (including the portfolio) drives core.Solve on
// three synthetic weak distances under one budget, reporting
// time-to-zero (ns/op), evaluations actually consumed (evals/op), and
// the fraction of seeds solved (solved).
//
//   - easy: a smooth slope into a zero band — any descent method solves
//     it almost immediately; the portfolio must stay within noise of
//     the best fixed backend here (its probe IS a fixed backend).
//   - stalled: a deceptive gradient pulling every local method to a
//     zero-free plateau at the origin, with the only zeros in a narrow
//     off-gradient pocket. Fixed local backends burn the whole budget
//     at the plateau; the portfolio detects the stall and escalates to
//     globally-sampling racers.
//   - deadend: no zeros at all. Fixed backends must exhaust the budget
//     by construction; the portfolio's plateau detector exits early,
//     and the reclaimed evaluations show up as a lower evals/op.
//
// Run with
//
//	go test -bench=BenchmarkSolve -benchtime=10x
func BenchmarkSolve(b *testing.B) {
	mkProb := func(name string, w func([]float64) float64) core.Problem {
		return core.Problem{Name: name, Dim: 1,
			NewW: func() core.WeakDistance { return w }}
	}
	fixtures := []struct {
		prob   core.Problem
		bounds []opt.Bound
	}{
		{mkProb("easy", func(x []float64) float64 {
			return math.Max(0, math.Abs(x[0]-3)-1)
		}), []opt.Bound{{Lo: -100, Hi: 100}}},
		{mkProb("stalled", func(x []float64) float64 {
			if x[0] > 41 && x[0] < 42 {
				return 0
			}
			return math.Abs(x[0])/100 + 1
		}), []opt.Bound{{Lo: -100, Hi: 100}}},
		{mkProb("deadend", func(x []float64) float64 {
			return x[0]*x[0]/1e4 + 1
		}), []opt.Bound{{Lo: -100, Hi: 100}}},
	}
	for _, fx := range fixtures {
		for _, name := range opt.BackendNames() {
			be, err := opt.BackendByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fx.prob.Name+"/"+name, func(b *testing.B) {
				var evals, solved int
				for i := 0; i < b.N; i++ {
					r := core.Solve(context.Background(), fx.prob, core.Options{
						Backend: be, Starts: 4, EvalsPerStart: 4000,
						Seed: int64(i) + 1, Bounds: fx.bounds,
					})
					evals += r.Evals
					if r.Found {
						solved++
					}
				}
				b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
				b.ReportMetric(float64(solved)/float64(b.N), "solved")
			})
		}
	}
}

// BenchmarkAblation_HighPrecisionBoundary compares the plain float64
// multiplicative boundary distance against the scaled double-double
// accumulator (the §5.2 higher-precision mitigation in internal/dd).
func BenchmarkAblation_HighPrecisionBoundary(b *testing.B) {
	p := libm.SinProgram()
	for _, hp := range []bool{false, true} {
		name := "plain"
		if hp {
			name = "double-double"
		}
		b.Run(name, func(b *testing.B) {
			w := p.WeakDistance(&instrument.Boundary{HighPrecision: hp})
			for i := 0; i < b.N; i++ {
				(&opt.Basinhopping{}).Minimize(opt.Objective(w), 1, opt.Config{
					Seed: int64(i) + 1, MaxEvals: 4000, StopAtZero: true,
				})
			}
		})
	}
}
