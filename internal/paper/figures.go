package paper

import (
	"fmt"
	"strings"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/rt"
)

// CurvePoint is one point of a weak-distance graph (Figures 3(b), 4(b)).
type CurvePoint struct {
	X, W float64
}

// SamplePoint is one MO sample (Figures 3(c), 4(c)): the n-th sampled
// input.
type SamplePoint struct {
	N int
	X float64
}

// FigureResult carries one weak-distance figure: the function graph and
// the sampling sequence.
type FigureResult struct {
	Name    string
	Curve   []CurvePoint
	Samples []SamplePoint
	// ZeroSamples counts samples that hit W = 0.
	ZeroSamples int
}

// Fig3 regenerates Figure 3: the boundary weak distance of the Fig. 2
// program, its graph on [-6, 5], and a Basinhopping sampling sequence.
func Fig3(seed int64, evals int) *FigureResult {
	p := progs.Fig2()
	return figure("fig3-boundary", p, p.WeakDistance(&instrument.Boundary{}), seed, evals)
}

// Fig4 regenerates Figure 4: the path weak distance targeting both
// branches (solution space [-3, 1]).
func Fig4(seed int64, evals int) *FigureResult {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Path{Target: []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}})
	return figure("fig4-path", p, w, seed, evals)
}

func figure(name string, p *rt.Program, w func([]float64) float64, seed int64, evals int) *FigureResult {
	if evals <= 0 {
		evals = 4000
	}
	res := &FigureResult{Name: name}
	// Grid by exact division so landmark points (-3, 1, 2) are hit
	// exactly rather than approached by accumulated 0.05 steps.
	for i := 0; i <= 220; i++ {
		x := float64(i-120) / 20
		res.Curve = append(res.Curve, CurvePoint{X: x, W: w([]float64{x})})
	}
	res.Samples = make([]SamplePoint, 0, evals)
	obj := func(x []float64) float64 {
		f := w(x)
		res.Samples = append(res.Samples, SamplePoint{N: len(res.Samples) + 1, X: x[0]})
		if f == 0 {
			res.ZeroSamples++
		}
		return f
	}
	(&opt.Basinhopping{}).Minimize(obj, 1, opt.Config{
		Seed:     seed,
		MaxEvals: evals,
		Bounds:   []opt.Bound{{Lo: -10, Hi: 10}},
	})
	return res
}

// Format renders the figure as two text series.
func (f *FigureResult) Format() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%s: weak-distance graph (x, W):\n", f.Name))
	for i, c := range f.Curve {
		if i%20 == 0 { // decimate for readability
			sb.WriteString(fmt.Sprintf("  %8.3f  %12.6g\n", c.X, c.W))
		}
	}
	sb.WriteString(fmt.Sprintf("%s: MO sampling (n, x_n), %d samples, %d at W=0:\n",
		f.Name, len(f.Samples), f.ZeroSamples))
	step := len(f.Samples)/40 + 1
	for i := 0; i < len(f.Samples); i += step {
		s := f.Samples[i]
		sb.WriteString(fmt.Sprintf("  %6d  %14.8g\n", s.N, s.X))
	}
	return sb.String()
}

// Fig7Result is the characteristic-function ablation (§5.3, Fig. 7):
// the same boundary problem solved with the graded multiplicative weak
// distance versus the flat 0/1 characteristic function.
type Fig7Result struct {
	// GradedEvals / GradedFound: evaluations until the first zero with
	// the graded weak distance.
	GradedEvals int
	GradedFound bool
	// FlatEvals / FlatFound: same with the characteristic function
	// (degenerates to random testing; expected not to find within
	// budget).
	FlatEvals int
	FlatFound bool
	Budget    int
}

// Fig7 runs the ablation.
func Fig7(seed int64, budget int) *Fig7Result {
	if budget <= 0 {
		budget = 40000
	}
	p := progs.Fig2()
	res := &Fig7Result{Budget: budget}

	run := func(mon rt.Monitor) (int, bool) {
		cfg := opt.Config{
			Seed:       seed,
			MaxEvals:   budget,
			Bounds:     []opt.Bound{{Lo: -100, Hi: 100}},
			StopAtZero: true,
		}
		r := (&opt.Basinhopping{}).Minimize(opt.Objective(p.WeakDistance(mon)), 1, cfg)
		return r.Evals, r.FoundZero
	}
	res.GradedEvals, res.GradedFound = run(&instrument.Boundary{})
	res.FlatEvals, res.FlatFound = run(&instrument.Characteristic{})
	return res
}

// Format renders the ablation outcome.
func (f *Fig7Result) Format() string {
	verdict := func(evals int, found bool) string {
		if found {
			return fmt.Sprintf("zero after %d evaluations", evals)
		}
		return fmt.Sprintf("NOT FOUND within %d evaluations", evals)
	}
	return fmt.Sprintf(`Fig. 7 ablation: graded vs characteristic weak distance (budget %d).
  graded  |a-b| distance:   %s
  flat    0/1 distance:     %s
The flat weak distance satisfies Def. 3.1 but carries no gradient;
minimizing it degenerates into random testing (Limitation 3).
`, f.Budget, verdict(f.GradedEvals, f.GradedFound), verdict(f.FlatEvals, f.FlatFound))
}
