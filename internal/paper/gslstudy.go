package paper

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/gsl"
	"repro/internal/rt"
)

// GSLBenchmark bundles one §6.3 benchmark: the instrumented program for
// Algorithm 3 and the concrete evaluator for inconsistency replay.
type GSLBenchmark struct {
	File     string
	Function string
	Program  *rt.Program
	Eval     analysis.SFFunc
	// KnownBugs are confirmed-bug trigger inputs with descriptions,
	// replayed for the |B| column (the paper verified these with gdb).
	KnownBugs []KnownBug
}

// KnownBug is a confirmed defect with its trigger input.
type KnownBug struct {
	Input []float64
	What  string
	// Manifest decides whether a replayed result exhibits the bug.
	Manifest func(res gsl.Result, st gsl.Status) bool
}

// GSLBenchmarks returns the three §6.3 benchmarks.
func GSLBenchmarks() []GSLBenchmark {
	return []GSLBenchmark{
		{
			File:     "bessel",
			Function: "gsl_sf_bessel_Knu_scaled_asympx_e",
			Program:  gsl.BesselProgram(),
			Eval: func(x []float64) (gsl.Result, gsl.Status) {
				return gsl.BesselKnuScaledAsympx(x[0], x[1])
			},
		},
		{
			File:     "hyperg",
			Function: "gsl_sf_hyperg_2F0_e",
			Program:  gsl.Hyperg2F0Program(),
			Eval: func(x []float64) (gsl.Result, gsl.Status) {
				return gsl.Hyperg2F0(x[0], x[1], x[2])
			},
		},
		{
			File:     "airy",
			Function: "gsl_sf_airy_Ai_e",
			Program:  gsl.AiryAiProgram(),
			Eval: func(x []float64) (gsl.Result, gsl.Status) {
				return gsl.AiryAi(x[0])
			},
			KnownBugs: []KnownBug{
				{
					Input: []float64{-1.8427611519777440},
					What:  "division by zero: result_m vanishes in airy_mod_phase, err = Inf with GSL_SUCCESS",
					Manifest: func(res gsl.Result, st gsl.Status) bool {
						return st == gsl.Success && (math.IsInf(res.Err, 0) || math.IsNaN(res.Err))
					},
				},
				{
					Input: []float64{-1.14e34},
					What:  "inaccurate cosine: gsl_sf_cos_err_e returns far outside [-1,1] for huge phase",
					Manifest: func(res gsl.Result, st gsl.Status) bool {
						return st == gsl.Success && (math.Abs(res.Val) > 1 || math.IsNaN(res.Val))
					},
				},
			},
		},
	}
}

// Table3Row summarizes one benchmark (Table 3's columns).
type Table3Row struct {
	File            string
	Function        string
	Ops             int     // |Op|
	Overflows       int     // |O|
	Inconsistencies int     // |I|
	Bugs            int     // |B|
	Seconds         float64 // T
}

// GSLStudyResult carries everything Tables 3-5 need.
type GSLStudyResult struct {
	Rows []Table3Row
	// OverflowReports maps File to the Algorithm 3 report (Table 4).
	OverflowReports map[string]*analysis.OverflowReport
	// Inconsistencies maps File to the §6.3.2 replay findings (Table 5).
	Inconsistencies map[string][]analysis.Inconsistency
	// BugReplays maps File to the manifested known bugs.
	BugReplays map[string][]KnownBug
}

// GSLStudyWorkers runs the full §6.3 pipeline: Algorithm 3 per
// benchmark, inconsistency replay of every generated input, and
// confirmed-bug replay. Minimization rounds run on workers goroutines
// (0 = all CPUs); the result is identical for every value.
func GSLStudyWorkers(seed int64, evalsPerRound, workers int) *GSLStudyResult {
	res := &GSLStudyResult{
		OverflowReports: map[string]*analysis.OverflowReport{},
		Inconsistencies: map[string][]analysis.Inconsistency{},
		BugReplays:      map[string][]KnownBug{},
	}
	for bi, b := range GSLBenchmarks() {
		rep := analysis.DetectOverflows(context.Background(), b.Program, analysis.OverflowOptions{
			Seed:          seed + int64(bi)*1_000_003,
			EvalsPerRound: evalsPerRound,
			Workers:       workers,
		})
		res.OverflowReports[b.File] = rep

		var inputs [][]float64
		for _, f := range rep.Findings {
			inputs = append(inputs, f.Input)
		}
		incs := analysis.CheckInconsistencies(b.Eval, inputs)
		res.Inconsistencies[b.File] = incs

		var bugs []KnownBug
		for _, kb := range b.KnownBugs {
			if r, st := b.Eval(kb.Input); kb.Manifest(r, st) {
				bugs = append(bugs, kb)
			}
		}
		res.BugReplays[b.File] = bugs

		res.Rows = append(res.Rows, Table3Row{
			File:            b.File,
			Function:        b.Function,
			Ops:             rep.Ops,
			Overflows:       len(rep.Findings),
			Inconsistencies: len(incs),
			Bugs:            len(bugs),
			Seconds:         rep.Duration.Seconds(),
		})
	}
	return res
}

// FormatTable3 renders the summary.
func (g *GSLStudyResult) FormatTable3() string {
	var sb strings.Builder
	sb.WriteString("Table 3. Result summary: floating-point overflow detection.\n")
	sb.WriteString(fmt.Sprintf("%-8s %-36s %6s %5s %5s %5s %8s\n",
		"File", "Function", "|Op|", "|O|", "|I|", "|B|", "T (sec)"))
	for _, r := range g.Rows {
		sb.WriteString(fmt.Sprintf("%-8s %-36s %6d %5d %5d %5d %8.2f\n",
			r.File, r.Function, r.Ops, r.Overflows, r.Inconsistencies, r.Bugs, r.Seconds))
	}
	return sb.String()
}

// FormatTable4 renders the per-operation Bessel findings.
func (g *GSLStudyResult) FormatTable4() string {
	rep := g.OverflowReports["bessel"]
	if rep == nil {
		return "Table 4: bessel report missing\n"
	}
	bySite := map[int]analysis.OverflowFinding{}
	for _, f := range rep.Findings {
		bySite[f.Site] = f
	}
	var sb strings.Builder
	sb.WriteString("Table 4. Floating-point overflow detected in Bessel.\n")
	sb.WriteString(fmt.Sprintf("%-72s %s\n", "Floating-point operation", "nu*, x*"))
	for site := 0; site < gsl.BesselOpCount; site++ {
		label := gsl.BesselOpLabel(site)
		if f, ok := bySite[site]; ok {
			sb.WriteString(fmt.Sprintf("%-72s %.2g, %.2g\n", label, f.Input[0], f.Input[1]))
		} else {
			sb.WriteString(fmt.Sprintf("%-72s missed\n", label))
		}
	}
	sb.WriteString(fmt.Sprintf("found %d / %d operations (%d rounds, %d evaluations)\n",
		len(rep.Findings), rep.Ops, rep.Rounds, rep.Evals))
	return sb.String()
}

// FormatTable5 renders the inconsistency findings and the confirmed-bug
// replays.
func (g *GSLStudyResult) FormatTable5() string {
	var sb strings.Builder
	sb.WriteString("Table 5. Inconsistencies (status GSL_SUCCESS with non-finite val/err) and root causes.\n")
	sb.WriteString(fmt.Sprintf("%-8s %-34s %6s %12s %12s %s\n",
		"File", "x*", "status", "val", "err", "root cause"))
	for _, file := range []string{"bessel", "hyperg", "airy"} {
		for _, inc := range g.Inconsistencies[file] {
			sb.WriteString(fmt.Sprintf("%-8s %-34s %6d %12.4g %12.4g %s\n",
				file, formatInput(inc.Input), int(inc.Status), inc.Val, inc.Err, inc.Cause))
		}
	}
	sb.WriteString("\nConfirmed-bug replays:\n")
	for _, file := range []string{"bessel", "hyperg", "airy"} {
		for _, kb := range g.BugReplays[file] {
			sb.WriteString(fmt.Sprintf("  %s %v: %s\n", file, kb.Input, kb.What))
		}
	}
	return sb.String()
}

func formatInput(x []float64) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = fmt.Sprintf("%.3g", v)
	}
	return strings.Join(parts, ", ")
}
