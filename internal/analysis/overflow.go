package analysis

import (
	"context"
	"runtime"
	"time"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// OverflowOptions configures DetectOverflows (Algorithm 3).
type OverflowOptions struct {
	// Seed makes the run deterministic.
	Seed int64
	// EvalsPerRound bounds weak-distance evaluations per minimization
	// round (step 5); zero selects 6000.
	EvalsPerRound int
	// MaxRounds caps minimization rounds beyond the |L| <= nOps
	// guarantee; zero selects 3 * number of operation sites.
	MaxRounds int
	// Backend is the MO backend; nil selects Basinhopping (as in the
	// paper's fpod).
	Backend opt.Minimizer
	// Bounds optionally restricts the input space.
	Bounds []opt.Bound
	// RetriesPerTarget relaunches from fresh starting points when a
	// round ends with a positive minimum, before giving the target up
	// (§6.3.1: "we relaunch Basinhopping with other starting points in
	// case that failing to find a minimum 0 is due to incompleteness");
	// zero selects 3.
	RetriesPerTarget int
	// Workers sets the parallelism: 0 selects runtime.NumCPU(), 1 runs
	// one round at a time. Rounds depend on the tracked set L built
	// by earlier rounds, so parallelism is speculative: Workers rounds
	// run concurrently against a snapshot of L, and speculative results
	// are discarded as soon as a consumed round changes L. The report is
	// identical for every Workers value.
	Workers int
}

func (o OverflowOptions) evalsPerRound() int {
	if o.EvalsPerRound > 0 {
		return o.EvalsPerRound
	}
	return 6000
}

func (o OverflowOptions) backend() opt.Minimizer {
	if o.Backend != nil {
		return o.Backend
	}
	return &opt.Basinhopping{}
}

func (o OverflowOptions) retries() int {
	if o.RetriesPerTarget > 0 {
		return o.RetriesPerTarget
	}
	return 3
}

func (o OverflowOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o OverflowOptions) maxRounds(p *rt.Program) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 3 * len(p.Ops)
}

func (o OverflowOptions) huntConfig(p *rt.Program, mk func(tracked instrument.SiteSet) siteMonitor) siteHuntConfig {
	return siteHuntConfig{
		seed:          o.Seed,
		evalsPerRound: o.evalsPerRound(),
		maxRounds:     o.maxRounds(p),
		retries:       o.retries(),
		workers:       o.Workers,
		batchSize:     o.workers(),
		backend:       o.backend(),
		bounds:        o.Bounds,
		monitor:       mk,
	}
}

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
// terminates when every site is tracked.
func DetectOverflows(ctx context.Context, p *rt.Program, o OverflowOptions) *OverflowReport {
	start := time.Now()
	hunt := runSiteHunt(ctx, p, o.huntConfig(p, func(tracked instrument.SiteSet) siteMonitor {
		return &instrument.Overflow{L: tracked}
	}))

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
	return rep
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

// siteHuntConfig parameterizes runSiteHunt; see OverflowOptions for the
// field semantics. The monitor factory builds a fresh weak-distance
// monitor over a (possibly shared, read-only) tracked-set snapshot.
type siteHuntConfig struct {
	seed          int64
	evalsPerRound int
	maxRounds     int
	retries       int
	workers       int
	batchSize     int
	backend       opt.Minimizer
	bounds        []opt.Bound
	monitor       func(tracked instrument.SiteSet) siteMonitor
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
// operation sites, repeatedly minimizes the monitor's distance (which
// targets the last executed site outside L), records an input for every
// site driven to its target, and terminates when every site is tracked,
// the round budget is spent, or repeated rounds make no progress.
//
// Rounds have a sequential dependency through L, so parallelism is
// speculative: batchSize rounds run concurrently against a read-only
// snapshot of L, and speculative results are discarded as soon as a
// consumed round changes L. The outcome is identical for every worker
// count.
func runSiteHunt(ctx context.Context, p *rt.Program, c siteHuntConfig) siteHunt {
	var L instrument.SiteSet
	var hunt siteHunt
	retriesLeft := c.retries

	gaveUp := false
	for !gaveUp && hunt.rounds < c.maxRounds && L.Len() < len(p.Ops) {
		if ctx.Err() != nil {
			hunt.canceled = true
			break
		}
		// Launch speculative rounds against a read-only snapshot of L.
		// Slot j corresponds to serial round hunt.rounds+j and uses that
		// round's historical seed.
		snapshot := L.Clone()
		batchSize := c.batchSize
		if rem := c.maxRounds - hunt.rounds; batchSize > rem {
			batchSize = rem
		}
		batch := opt.ParallelStarts(c.backend, func(int) opt.Objective {
			inst := p.Instance()
			mon := c.monitor(snapshot)
			return opt.Objective(inst.WeakDistance(mon))
		}, p.Dim, opt.ParallelConfig{
			Starts:     batchSize,
			Workers:    c.workers,
			Seed:       c.seed + int64(hunt.rounds)*104729,
			SeedStride: 104729,
			MaxEvals:   c.evalsPerRound,
			Bounds:     c.bounds,
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
			replayMon := c.monitor(snapshot)
			p.Execute(replayMon, sr.X)
			target := replayMon.LastSite()

			if sr.FoundZero && target >= 0 {
				// Step 6: a genuine hit at the target.
				hunt.findings = append(hunt.findings, siteFinding{
					site:  target,
					input: sr.X,
				})
				L.Add(target)
				retriesLeft = c.retries
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
			retriesLeft = c.retries
			break // L changed: remaining slots are stale
		}
	}
	return hunt
}
