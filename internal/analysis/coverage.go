package analysis

import (
	"context"
	"sort"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

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
//
// It reads Seed, Evals (per round), Stall (rounds without new coverage
// before it stops), Backend, Bounds, ULP and Workers from s; a zero or
// negative Evals or Stall takes coverage's DefaultSpec value. Rounds
// have a sequential dependency (each round's weak distance is built
// over the covered set left by the previous one), so parallelism is
// speculative: Workers rounds are minimized concurrently against a
// snapshot of the covered set, and speculative results are discarded
// the moment a consumed round changes the set. The report is therefore
// identical for every Workers value; speculation pays off in the stall
// phase, where rounds leave the set unchanged.
func Cover(ctx context.Context, p *rt.Program, s Spec) (*CoverReport, error) {
	s, be, err := s.resolve(coverageAnalysis{}.DefaultSpec())
	if err != nil {
		return nil, err
	}
	covered := map[instrument.Side]bool{}
	rep := &CoverReport{
		Total:  2 * len(p.Branches),
		Inputs: map[instrument.Side][]float64{},
	}

	rec := &instrument.RecordNewSides{Covered: covered}
	stall := 0
	for stall < s.Stall && len(covered) < rep.Total {
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		// Launch a batch of speculative rounds against a read-only
		// snapshot of the covered set. Slot j corresponds to serial
		// round rep.Rounds+1+j and uses that round's historical seed.
		snapshot := make(map[instrument.Side]bool, len(covered))
		for side := range covered {
			snapshot[side] = true
		}
		batch := opt.ParallelStarts(be, func(int) opt.Objective {
			inst := p.Instance()
			mon := &instrument.Coverage{Covered: snapshot, ULP: s.ULP}
			return opt.Objective(inst.WeakDistance(mon))
		}, p.Dim, opt.ParallelConfig{
			Starts:     s.batchSize(),
			Workers:    s.Workers,
			Seed:       s.Seed + int64(rep.Rounds+1)*15485863,
			SeedStride: 15485863,
			MaxEvals:   s.Evals,
			Bounds:     s.Bounds,
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
				if stall++; stall >= s.Stall {
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
			for _, side := range sides {
				covered[side] = true
				rep.Covered = append(rep.Covered, side)
				in := make([]float64, len(sr.X))
				copy(in, sr.X)
				rep.Inputs[side] = in
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
	return rep, nil
}
