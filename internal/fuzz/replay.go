package fuzz

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/rt"
	"repro/internal/sat"
)

// ReplayFindings is oracle layer 3 — the paper's soundness property as
// an executable check: every finding reported by a registered analysis
// is re-executed through rt (or, for xsat, through concrete formula
// evaluation) and confirmed against the claimed verdict.
//
//   - bva: every reported example input must sit exactly on some
//     executed branch boundary, and the report itself must claim zero
//     soundness violations.
//   - coverage: every recorded input must actually take the branch side
//     it is recorded for, and the covered list must be consistent.
//   - overflow: every finding's input must drive the finding's
//     operation site to magnitude >= MAX.
//   - nan: every finding's input must produce the claimed non-finite
//     class at the finding's site.
//   - reach: a found input must realize the target decision sequence.
//   - xsat: a Sat verdict's model must concretely satisfy the formula.
//
// Analyses may legitimately report "not found" — incompleteness is
// allowed (Limitation 3); only positive claims are checked. The spec
// supplies the target path (reach) and formula (xsat). The program p
// may be nil for formula-based reports.
func ReplayFindings(p *rt.Program, spec analysis.Spec, rep analysis.Report) []Violation {
	var out []Violation
	add := func(detail string, x []float64) {
		out = append(out, Violation{Layer: "replay", Detail: detail,
			Input: append([]float64(nil), x...)}) // program attached by callers that have source
	}

	switch r := rep.(type) {
	case *analysis.BoundaryReport:
		// Under the plain float64 product, sampled zeros can be
		// underflow artifacts (Limitation 2); the analysis rejects and
		// counts them, which is correct behavior, not a violation. With
		// the ULP or high-precision distance a zero provably carries a
		// witness, so any counted rejection is a real defect.
		if r.SoundnessViolations != 0 && (spec.ULP || spec.HighPrecision) {
			add(fmt.Sprintf("bva: %d sampled zeros had no boundary witness despite an underflow-free distance",
				r.SoundnessViolations), nil)
		}
		for _, cs := range r.Conditions {
			for _, x := range cs.Examples {
				wit := &instrument.BoundaryWitness{}
				p.Instance().Execute(wit, x)
				hit := false
				for _, s := range wit.Sites() {
					if s == cs.Key.Site {
						hit = true
						break
					}
				}
				if !hit {
					add(fmt.Sprintf("bva: example for site %d does not replay to a boundary hit (witness sites %v)",
						cs.Key.Site, wit.Sites()), x)
				}
			}
		}

	case *analysis.CoverReport:
		for _, side := range r.Covered {
			x, ok := r.Inputs[side]
			if !ok {
				add(fmt.Sprintf("coverage: covered side %d:%v has no recorded input", side.Site, side.Taken), nil)
				continue
			}
			rec := &instrument.RecordNewSides{Covered: map[instrument.Side]bool{}}
			p.Instance().Execute(rec, x)
			hit := false
			for _, s := range rec.Sides() {
				if s == side {
					hit = true
					break
				}
			}
			if !hit {
				add(fmt.Sprintf("coverage: input recorded for side %d:%v does not take it (takes %v)",
					side.Site, side.Taken, rec.Sides()), x)
			}
		}

	case *analysis.OverflowRun:
		out = append(out, replayOverflow(p, r.OverflowReport)...)

	case *analysis.NonFiniteReport:
		for _, f := range r.Findings {
			probe := &siteProbe{site: f.Site}
			p.Instance().Execute(probe, f.Input)
			got := classify(probe.val)
			if got != f.Class {
				add(fmt.Sprintf("nan: finding at site %d claims %s but replay produces %s (%v)",
					f.Site, f.Class, got, probe.val), f.Input)
			}
		}

	case *analysis.ReachRun:
		if r.Found {
			wit := &instrument.PathWitness{}
			p.Instance().Execute(wit, r.X)
			if !wit.Matches(spec.Path) {
				add(fmt.Sprintf("reach: found input does not realize target %v (decisions %v)",
					spec.Path, wit.Decisions()), r.X)
			}
		}

	case *analysis.SatRun:
		if r.Verdict == sat.Sat {
			f, _, err := sat.Parse(spec.Formula)
			if err != nil {
				add("xsat: spec formula does not re-parse: "+err.Error(), nil)
				break
			}
			if !f.Eval(r.Model) {
				add(fmt.Sprintf("xsat: Sat model %v does not satisfy %q", r.Model, spec.Formula), r.Model)
			}
		}

	default:
		add(fmt.Sprintf("replay: unknown report type %T (no replay oracle registered)", rep), nil)
	}
	return out
}

// replayOverflow confirms every overflow finding: the input must drive
// the finding's operation site to saturation or beyond (|v| >= MAX, the
// Algorithm 3 overflow predicate fp.OverflowDist(v) == 0).
func replayOverflow(p *rt.Program, r *analysis.OverflowReport) []Violation {
	var out []Violation
	for _, f := range r.Findings {
		probe := &siteProbe{site: f.Site, wantOverflow: true}
		p.Instance().Execute(probe, f.Input)
		if fp.OverflowDist(probe.val) != 0 {
			out = append(out, Violation{Layer: "replay",
				Detail: fmt.Sprintf("overflow: finding at site %d does not replay to overflow (|v|=%v < MAX)",
					f.Site, math.Abs(probe.val)),
				Input: append([]float64(nil), f.Input...)})
		}
	}
	return out
}

// classify mirrors the nan analysis' IEEE-754 classification.
func classify(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return "finite"
}

// siteProbe replays an execution and records the value produced at one
// operation site. It keeps the latest value and stops at the first one
// matching the hunt's target event (non-finite, or overflow when
// wantOverflow) — the event the analysis' weak distance hit zero on.
type siteProbe struct {
	site         int
	wantOverflow bool
	val          float64
	stopped      bool
}

func (p *siteProbe) Reset() { p.val, p.stopped = 0, false }

func (p *siteProbe) Branch(int, fp.CmpOp, float64, float64) {}

func (p *siteProbe) FPOp(site int, v float64) bool {
	if p.stopped || site != p.site {
		return p.stopped
	}
	p.val = v
	if p.wantOverflow {
		p.stopped = fp.OverflowDist(v) == 0
	} else {
		p.stopped = math.IsNaN(v) || math.IsInf(v, 0)
	}
	return p.stopped
}

func (p *siteProbe) Value() float64 { return 0 }
