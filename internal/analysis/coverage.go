package analysis

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// CoverOptions configures Cover.
type CoverOptions struct {
	// Seed makes the run deterministic.
	Seed int64
	// EvalsPerRound bounds evaluations per minimization round; zero
	// selects 4000.
	EvalsPerRound int
	// MaxStall stops after this many consecutive rounds without new
	// coverage; zero selects 6.
	MaxStall int
	// Backend is the MO backend; nil selects Basinhopping.
	Backend opt.Minimizer
	// Bounds optionally restricts the input space.
	Bounds []opt.Bound
	// ULP selects ULP branch distances.
	ULP bool
	// Workers sets the parallelism: 0 selects runtime.NumCPU(), 1 runs
	// one round at a time. Rounds have a sequential dependency (each
	// round's weak distance is built over the covered set left by the
	// previous one), so parallelism is speculative: Workers rounds are
	// minimized concurrently against a snapshot of the covered set, and
	// speculative results are discarded the moment a consumed round
	// changes the set. The report is therefore identical for every
	// Workers value; speculation pays off in the stall phase, where
	// rounds leave the set unchanged.
	Workers int
}

func (o CoverOptions) evalsPerRound() int {
	if o.EvalsPerRound > 0 {
		return o.EvalsPerRound
	}
	return 4000
}

func (o CoverOptions) maxStall() int {
	if o.MaxStall > 0 {
		return o.MaxStall
	}
	return 6
}

func (o CoverOptions) backend() opt.Minimizer {
	if o.Backend != nil {
		return o.Backend
	}
	return &opt.Basinhopping{}
}

func (o CoverOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// CoverReport is the result of branch-coverage testing.
type CoverReport struct {
	// Covered lists the covered branch sides.
	Covered []instrument.Side
	// Total is 2 × number of branch sites (each site has two sides).
	Total int
	// Inputs maps each covered side to the input that first covered it.
	Inputs map[instrument.Side][]float64
	// Rounds and Evals account for the search effort (consumed rounds
	// only; discarded speculative rounds are not charged).
	Rounds int
	Evals  int
	// Canceled reports the analysis was cut short by context
	// cancellation; Covered holds whatever had been reached by then.
	Canceled bool `json:"canceled,omitempty"`
}

// Ratio returns covered/total.
func (r *CoverReport) Ratio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(len(r.Covered)) / float64(r.Total)
}

// Cover implements branch-coverage-based testing (§2 Instance 4, the
// CoverMe construction): it grows the covered set B by repeatedly
// minimizing the coverage weak distance, which is zero exactly on
// inputs taking some branch side outside B.
func Cover(ctx context.Context, p *rt.Program, o CoverOptions) *CoverReport {
	covered := map[instrument.Side]bool{}
	rep := &CoverReport{
		Total:  2 * len(p.Branches),
		Inputs: map[instrument.Side][]float64{},
	}

	backend := o.backend()
	rec := &instrument.RecordNewSides{Covered: covered}
	stall := 0
	for stall < o.maxStall() && len(covered) < rep.Total {
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		// Launch a batch of speculative rounds against a read-only
		// snapshot of the covered set. Slot j corresponds to serial
		// round rep.Rounds+1+j and uses that round's historical seed.
		snapshot := make(map[instrument.Side]bool, len(covered))
		for s := range covered {
			snapshot[s] = true
		}
		batch := opt.ParallelStarts(backend, func(int) opt.Objective {
			inst := p.Instance()
			mon := &instrument.Coverage{Covered: snapshot, ULP: o.ULP}
			return opt.Objective(inst.WeakDistance(mon))
		}, p.Dim, opt.ParallelConfig{
			Starts:     o.workers(),
			Workers:    o.Workers,
			Seed:       o.Seed + int64(rep.Rounds+1)*15485863,
			SeedStride: 15485863,
			MaxEvals:   o.evalsPerRound(),
			Bounds:     o.Bounds,
			StopAtZero: true,
			Ctx:        ctx,
		})

		// Consume slots in round order, replaying the serial driver's
		// state machine; the first slot that grows the covered set
		// invalidates the rest of the batch (they were computed against
		// the now-stale snapshot).
		for _, sr := range batch {
			if sr.Skipped {
				break
			}
			if sr.Canceled {
				// A cancelled slot holds a truncated round: charge its
				// samples but don't let it count as a stalled round.
				rep.Evals += sr.Evals
				rep.Canceled = true
				break
			}
			rep.Rounds++
			rep.Evals += sr.Evals
			if !sr.FoundZero {
				if stall++; stall >= o.maxStall() {
					break
				}
				continue
			}
			// Replay the solution to find which sides it covers, and
			// merge. Any FoundZero slot ends the batch: later slots may
			// have been cancelled when this zero landed, so their
			// results are not trustworthy — the next batch re-runs them
			// with their positional seeds, preserving serial
			// equivalence.
			p.Execute(rec, sr.X)
			sides := rec.Sides()
			if len(sides) == 0 {
				stall++
				break
			}
			stall = 0
			for _, s := range sides {
				covered[s] = true
				rep.Covered = append(rep.Covered, s)
				in := make([]float64, len(sr.X))
				copy(in, sr.X)
				rep.Inputs[s] = in
			}
			break // covered set changed: remaining slots are stale
		}
	}
	sort.Slice(rep.Covered, func(i, j int) bool {
		a, b := rep.Covered[i], rep.Covered[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Taken && !b.Taken
	})
	return rep
}
