package analysis

import (
	"context"
	"math"
	"time"

	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/rt"
)

// NonFiniteFinding is one detected domain error: an operation site
// driven to a non-finite result, the input triggering it, and the
// IEEE-754 class of the value produced there.
type NonFiniteFinding struct {
	Site  int    `json:"site"`
	Label string `json:"label"`
	// Class is "NaN", "+Inf", or "-Inf".
	Class string    `json:"class"`
	Input []float64 `json:"input"`
}

// NonFiniteReport is the result of the NaN/domain-error finder.
type NonFiniteReport struct {
	// Findings lists one domain error per detected site, in detection
	// order.
	Findings []NonFiniteFinding `json:"findings"`
	// Missed lists operation sites never driven to a non-finite value.
	Missed []int `json:"missed"`
	// Ops is the total number of operation sites.
	Ops int `json:"ops"`
	// Rounds counts minimization rounds; Evals total weak-distance
	// evaluations. Discarded speculative rounds are not charged.
	Rounds int `json:"rounds"`
	Evals  int `json:"evals"`
	// Duration is the wall-clock analysis time.
	Duration time.Duration `json:"duration"`
	// Canceled reports the hunt was cut short by context cancellation.
	Canceled bool `json:"canceled,omitempty"`
}

// Found reports whether the site has a detected domain error.
func (r *NonFiniteReport) Found(site int) bool {
	for _, f := range r.Findings {
		if f.Site == site {
			return true
		}
	}
	return false
}

// FindNonFinite is the NaN/domain-error finder: it generates inputs
// driving as many floating-point operations of the program as possible
// to non-finite results (NaN or ±Inf), reusing the Algorithm 3 overflow
// machinery with the instrument.NonFinite weak distance. Each finding
// is classified by replaying its input and recording the value the
// targeted operation produced. It reads the Spec fields runSiteHunt
// reads, with nan's DefaultSpec.
func FindNonFinite(ctx context.Context, p *rt.Program, s Spec) (*NonFiniteReport, error) {
	start := time.Now()
	hunt, err := runSiteHunt(ctx, p, s, nanAnalysis{}.DefaultSpec(), func(tracked instrument.SiteSet) siteMonitor {
		return &instrument.NonFinite{L: tracked}
	})
	if err != nil {
		return nil, err
	}

	rep := &NonFiniteReport{Ops: len(p.Ops), Rounds: hunt.rounds, Evals: hunt.evals, Canceled: hunt.canceled}
	labels := map[int]string{}
	for _, op := range p.Ops {
		labels[op.ID] = op.Label
	}
	probe := &opProbe{}
	for _, f := range hunt.findings {
		probe.site = f.site
		p.Execute(probe, f.input)
		rep.Findings = append(rep.Findings, NonFiniteFinding{
			Site:  f.site,
			Label: labels[f.site],
			Class: classifyValue(probe.val),
			Input: f.input,
		})
	}
	for _, op := range p.Ops {
		if !rep.Found(op.ID) {
			rep.Missed = append(rep.Missed, op.ID)
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

func classifyValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return "finite" // defensive: replay disagreed with the search
}

// opProbe replays an execution and records the value produced at one
// operation site. The site may execute many times (loops); the probe
// keeps the latest value and stops at the first non-finite one — the
// event the hunt's weak distance hit zero on.
type opProbe struct {
	site    int
	val     float64
	stopped bool
}

func (p *opProbe) Reset() {
	p.val, p.stopped = 0, false
}

func (p *opProbe) Branch(int, fp.CmpOp, float64, float64) {}

func (p *opProbe) FPOp(site int, v float64) bool {
	if p.stopped || site != p.site {
		return p.stopped
	}
	p.val = v
	p.stopped = math.IsNaN(v) || math.IsInf(v, 0)
	return p.stopped
}

func (p *opProbe) Value() float64 { return 0 }
