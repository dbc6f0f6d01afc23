// Package analysis implements the end-user floating-point analyses of
// the paper on top of the weak-distance reduction kernel: boundary value
// analysis (§4.2, §6.2), path reachability (§4.3), overflow detection
// (Algorithm 3, §6.3), branch-coverage testing (§2 Instance 4), and the
// inconsistency replay of §6.3.2.
package analysis

import (
	"context"
	"math"
	"sort"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// keepValues bounds how many concrete boundary values a condition
// retains; its statistics always cover all of them.
const keepValues = 16

// ConditionKey identifies one boundary condition group: a branch site
// together with the sign of the (first) input — Table 2's ± rows.
type ConditionKey struct {
	Site     int
	Negative bool
}

// ConditionStats aggregates the boundary values attributed to one
// condition group.
type ConditionStats struct {
	Key   ConditionKey
	Label string
	// Hits counts boundary values triggering this condition.
	Hits int
	// Min and Max are the extreme first-input values observed (Table 2's
	// min/max rows).
	Min, Max float64
	// Examples retains up to keepValues concrete inputs.
	Examples [][]float64
}

// ProgressPoint is one step of the Fig. 9 series: after Samples
// weak-distance evaluations, Conditions distinct boundary conditions
// had been triggered.
type ProgressPoint struct {
	Samples    int
	Conditions int
}

// BoundaryReport is the result of a boundary value analysis.
type BoundaryReport struct {
	// Conditions lists the triggered condition groups, ordered by site
	// then sign.
	Conditions []ConditionStats
	// BoundaryValues counts all zero-distance samples (the |BV| of
	// §6.2).
	BoundaryValues int
	// Samples counts all weak-distance evaluations (the |Raw| of §6.2).
	Samples int
	// Progress is the Fig. 9 series.
	Progress []ProgressPoint
	// SoundnessViolations counts reported boundary values whose replay
	// failed to witness an exact boundary hit — always 0 unless the
	// weak distance is defective (§6.2 check (i)).
	SoundnessViolations int
	// Canceled reports the analysis was cut short by context
	// cancellation; the statistics cover the samples taken up to that
	// point.
	Canceled bool `json:"canceled,omitempty"`
}

// Condition returns the stats for a condition group, or nil.
func (r *BoundaryReport) Condition(site int, negative bool) *ConditionStats {
	for i := range r.Conditions {
		if r.Conditions[i].Key == (ConditionKey{site, negative}) {
			return &r.Conditions[i]
		}
	}
	return nil
}

// BoundaryValues runs boundary value analysis on the program: it
// minimizes the multiplicative boundary weak distance (§4.2) from many
// random starts, collects every sampled zero, attributes each zero to
// the boundary condition(s) it triggers by replaying it under a
// witness monitor (the §6.2 soundness check), and aggregates Table 2 /
// Fig. 9 style statistics.
//
// It reads Seed, Starts, Evals (per start), Backend, Bounds, ULP,
// HighPrecision and Workers from s; a zero or negative Starts or Evals
// takes bva's DefaultSpec value. The report is identical for every
// Workers value: per-start zeros are merged in start order, so
// parallelism only changes wall-clock time.
func BoundaryValues(ctx context.Context, p *rt.Program, s Spec) (*BoundaryReport, error) {
	s, be, err := s.resolve(bvaAnalysis{}.DefaultSpec())
	if err != nil {
		return nil, err
	}
	wit := &instrument.BoundaryWitness{}
	rep := &BoundaryReport{}
	stats := map[ConditionKey]*ConditionStats{}
	labels := map[int]string{}
	for _, b := range p.Branches {
		labels[b.ID] = b.Label
	}

	// Every restart is independent: run them on the worker pool, each
	// with its own program instance and monitor, each recording the
	// zeros its objective returns, then fold the zeros in start order —
	// the exact zero stream the serial loop produced. Starts run in
	// worker-sized batches so that at most one batch of zeros is
	// retained at a time (the fold is in start order, so batching never
	// changes the report).
	batchSize := s.batchSize()
	zeros := make([]startZeros, batchSize)
	for base := 0; base < s.Starts; base += batchSize {
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		n := min(s.Starts-base, batchSize)
		for i := range zeros {
			zeros[i].reset()
		}
		batch := opt.ParallelStarts(be, func(i int) opt.Objective {
			inst := p.Instance()
			mon := &instrument.Boundary{ULP: s.ULP, HighPrecision: s.HighPrecision}
			return zeros[i].record(inst.WeakDistance(mon))
		}, p.Dim, opt.ParallelConfig{
			Starts:     n,
			Workers:    s.Workers,
			Seed:       s.Seed + int64(base)*7919,
			SeedStride: 7919,
			MaxEvals:   s.Evals,
			Bounds:     s.Bounds,
			StopAtZero: false, // keep sampling: we want many boundary values
			Ctx:        ctx,
		})

		for i, sr := range batch {
			if sr.Canceled {
				rep.Canceled = true
			}
			mergeBoundaryZeros(p, &zeros[i], sr.Evals, wit, rep, stats, labels)
		}
	}

	for _, cs := range stats {
		rep.Conditions = append(rep.Conditions, *cs)
	}
	sort.Slice(rep.Conditions, func(i, j int) bool {
		a, b := rep.Conditions[i].Key, rep.Conditions[j].Key
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return !a.Negative && b.Negative
	})
	return rep, nil
}

// startZeros holds the exact zeros one start's objective returned.
type startZeros struct {
	n  []int     // 1-based evaluation index of each zero
	xs []float64 // zero i's input is xs[i*dim : (i+1)*dim]
}

// reset empties z, keeping its capacity for the next batch.
func (z *startZeros) reset() { z.n, z.xs = z.n[:0], z.xs[:0] }

// record wraps w to count evaluations and keep each zero's index and
// input.
func (z *startZeros) record(w func([]float64) float64) opt.Objective {
	evals := 0
	return func(x []float64) float64 {
		evals++
		f := w(x)
		if f == 0 {
			z.n = append(z.n, evals)
			z.xs = append(z.xs, x...)
		}
		return f
	}
}

// mergeBoundaryZeros folds one start's zeros into the report: attribute
// every exact zero to its boundary condition(s) by witness replay, and
// maintain the Fig. 9 progress series. rep.Samples at a zero is the
// samples merged before this start plus the zero's 1-based index, and
// after the start it grows by the start's evals.
func mergeBoundaryZeros(p *rt.Program, z *startZeros, evals int, wit *instrument.BoundaryWitness,
	rep *BoundaryReport, stats map[ConditionKey]*ConditionStats, labels map[int]string) {
	base := rep.Samples
	for i, n := range z.n {
		x := z.xs[i*p.Dim : (i+1)*p.Dim : (i+1)*p.Dim]
		rep.Samples = base + n
		rep.BoundaryValues++
		p.Execute(wit, x)
		sites := wit.Sites()
		if len(sites) == 0 {
			rep.SoundnessViolations++
			continue
		}
		for _, site := range sites {
			key := ConditionKey{Site: site, Negative: math.Signbit(x[0])}
			cs, ok := stats[key]
			if !ok {
				cs = &ConditionStats{
					Key:   key,
					Label: labels[site],
					Min:   math.Inf(1),
					Max:   math.Inf(-1),
				}
				stats[key] = cs
				rep.Progress = append(rep.Progress, ProgressPoint{
					Samples:    rep.Samples,
					Conditions: len(stats),
				})
			}
			cs.Hits++
			if v := x[0]; v < cs.Min {
				cs.Min = v
			}
			if v := x[0]; v > cs.Max {
				cs.Max = v
			}
			if len(cs.Examples) < keepValues {
				cs.Examples = append(cs.Examples, append([]float64(nil), x...))
			}
		}
	}
	rep.Samples = base + evals
}
