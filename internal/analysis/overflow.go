package analysis

import (
	"context"
	"time"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// OverflowFinding is one detected overflow: the operation site and an
// input triggering it (a row of Table 4).
type OverflowFinding struct {
	Site  int       `json:"site"`
	Label string    `json:"label"`
	Input []float64 `json:"input"`
}

// OverflowReport is the result of Algorithm 3.
type OverflowReport struct {
	// Findings lists one overflow per detected site, in detection
	// order.
	Findings []OverflowFinding `json:"findings"`
	// Missed lists operation sites for which no overflow was found
	// (unreachable overflows or incompleteness — Table 4's "missed").
	Missed []int `json:"missed"`
	// Ops is the total number of operation sites (|Op| of Table 3).
	Ops int `json:"ops"`
	// Rounds counts minimization rounds; Evals total weak-distance
	// evaluations. Discarded speculative rounds are not charged.
	Rounds int `json:"rounds"`
	Evals  int `json:"evals"`
	// Duration is the wall-clock analysis time (Table 3's T column).
	Duration time.Duration `json:"duration"`
	// Canceled reports the hunt was cut short by context cancellation;
	// Findings lists whatever had been detected by then.
	Canceled bool `json:"canceled,omitempty"`
}

// Found reports whether the site has a detected overflow.
func (r *OverflowReport) Found(site int) bool {
	for _, f := range r.Findings {
		if f.Site == site {
			return true
		}
	}
	return false
}

// DetectOverflows implements Algorithm 3 (the paper's fpod): it tracks
// the set L of handled operation sites, repeatedly minimizes the
// overflow weak distance (which targets the last executed site outside
// L), records an input for every site driven to overflow, and
// terminates when every site is tracked. See runSiteHunt for the Spec
// fields it reads.
func DetectOverflows(ctx context.Context, p *rt.Program, s Spec) (*OverflowReport, error) {
	start := time.Now()
	hunt, err := runSiteHunt(ctx, p, s, overflowAnalysis{}.DefaultSpec(), func(tracked instrument.SiteSet) siteMonitor {
		return &instrument.Overflow{L: tracked}
	})
	if err != nil {
		return nil, err
	}

	rep := &OverflowReport{Ops: len(p.Ops), Rounds: hunt.rounds, Evals: hunt.evals, Canceled: hunt.canceled}
	labels := map[int]string{}
	for _, op := range p.Ops {
		labels[op.ID] = op.Label
	}
	for _, f := range hunt.findings {
		rep.Findings = append(rep.Findings, OverflowFinding{
			Site:  f.site,
			Label: labels[f.site],
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

// siteMonitor is the weak-distance shape shared by the per-instruction
// hunts (overflow detection, the non-finite/domain-error finder): a
// monitor whose distance targets the last executed operation site
// outside a tracked set.
type siteMonitor interface {
	rt.Monitor
	// LastSite returns the operation site the previous execution
	// effectively targeted; -1 when every executed site was tracked.
	LastSite() int
}

// siteFinding is one site driven to its target, with the triggering
// input.
type siteFinding struct {
	site  int
	input []float64
}

// siteHunt is the raw outcome of the Algorithm 3 driver.
type siteHunt struct {
	findings []siteFinding
	rounds   int
	evals    int
	canceled bool
}

// runSiteHunt is the Algorithm 3 state machine, generic over the
// per-instruction weak distance: it tracks the set L of handled
// operation sites, repeatedly minimizes the distance of a monitor built
// over L (which targets the last executed site outside L), records an
// input for every site driven to its target, and terminates when every
// site is tracked, the round budget is spent, or repeated rounds make
// no progress.
//
// It reads Seed, Evals (per round), Rounds, Retries, Backend, Bounds
// and Workers from s. A zero or negative Evals takes def's value,
// Rounds 3 × the number of operation sites (beyond the |L| <= nOps
// guarantee), and Retries 3. Retries relaunches a round that ends with
// a positive minimum from fresh starting points before the target is
// given up (§6.3.1: "we relaunch Basinhopping with other starting
// points in case that failing to find a minimum 0 is due to
// incompleteness").
//
// Rounds have a sequential dependency through L, so parallelism is
// speculative: Workers rounds run concurrently against a read-only
// snapshot of L, and speculative results are discarded as soon as a
// consumed round changes L. The outcome is identical for every worker
// count.
func runSiteHunt(ctx context.Context, p *rt.Program, s, def Spec,
	monitor func(tracked instrument.SiteSet) siteMonitor) (siteHunt, error) {
	s, be, err := s.resolve(def)
	if err != nil {
		return siteHunt{}, err
	}
	maxRounds := s.Rounds
	if maxRounds <= 0 {
		maxRounds = 3 * len(p.Ops)
	}
	retries := s.Retries
	if retries <= 0 {
		retries = 3
	}

	var L instrument.SiteSet
	var hunt siteHunt
	retriesLeft := retries

	gaveUp := false
	for !gaveUp && hunt.rounds < maxRounds && L.Len() < len(p.Ops) {
		if ctx.Err() != nil {
			hunt.canceled = true
			break
		}
		// Launch speculative rounds against a read-only snapshot of L.
		// Slot j corresponds to serial round hunt.rounds+j and uses that
		// round's historical seed.
		snapshot := L.Clone()
		batch := opt.ParallelStarts(be, func(int) opt.Objective {
			inst := p.Instance()
			return opt.Objective(inst.WeakDistance(monitor(snapshot)))
		}, p.Dim, opt.ParallelConfig{
			Starts:     min(s.batchSize(), maxRounds-hunt.rounds),
			Workers:    s.Workers,
			Seed:       s.Seed + int64(hunt.rounds)*104729,
			SeedStride: 104729,
			MaxEvals:   s.Evals,
			Bounds:     s.Bounds,
			StopAtZero: true,
			Ctx:        ctx,
		})

		// Consume slots in round order, replaying Algorithm 3's state
		// machine; the first slot that mutates L invalidates the rest
		// (their weak distances were built over the stale snapshot).
		for _, sr := range batch {
			if sr.Skipped {
				break
			}
			if sr.Canceled {
				// A cancelled slot holds a truncated round: charge its
				// samples, skip the state machine (its minimum is not a
				// round outcome).
				hunt.evals += sr.Evals
				hunt.canceled = true
				break
			}
			hunt.rounds++
			hunt.evals += sr.Evals

			// Step 7: replay the minimum point to identify the targeted
			// instruction (the last untracked site the execution
			// reached). The snapshot equals L for every consumed slot.
			replayMon := monitor(snapshot)
			p.Execute(replayMon, sr.X)
			target := replayMon.LastSite()

			if sr.FoundZero && target >= 0 {
				// Step 6: a genuine hit at the target.
				hunt.findings = append(hunt.findings, siteFinding{
					site:  target,
					input: sr.X,
				})
				L.Add(target)
				retriesLeft = retries
				break // L changed: remaining slots are stale
			}

			if target < 0 {
				// Every site the execution reaches is already tracked; a
				// fresh random start may reach others, but if the whole
				// round made no progress repeatedly, stop early. The
				// serial loop broke before counting the give-up round
				// (its post-increment never ran), so uncount it here.
				if retriesLeft--; retriesLeft < 0 {
					hunt.rounds--
					gaveUp = true
					break
				}
				if sr.FoundZero {
					// Defensive: a zero whose replay targets nothing
					// means search and replay disagree. Later slots may
					// have been cancelled when this zero landed, so end
					// the batch; the next batch re-runs them with their
					// positional seeds.
					break
				}
				continue
			}

			// Positive minimum: possibly incompleteness. Retry the same
			// target from other starting points before giving it up
			// (adding it to L per the Algorithm 3 termination argument).
			if retriesLeft > 0 {
				retriesLeft--
				continue
			}
			L.Add(target)
			retriesLeft = retries
			break // L changed: remaining slots are stale
		}
	}
	return hunt, nil
}
