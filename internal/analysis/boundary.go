// Package analysis implements the end-user floating-point analyses of
// the paper on top of the weak-distance reduction kernel: boundary value
// analysis (§4.2, §6.2), path reachability (§4.3), overflow detection
// (Algorithm 3, §6.3), branch-coverage testing (§2 Instance 4), and the
// inconsistency replay of §6.3.2.
package analysis

import (
	"context"
	"math"
	"runtime"
	"sort"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// BoundaryOptions configures BoundaryValues.
type BoundaryOptions struct {
	// Seed makes the run deterministic.
	Seed int64
	// Starts is the number of minimization restarts; zero selects 32.
	Starts int
	// EvalsPerStart bounds weak-distance evaluations per restart; zero
	// selects 4000.
	EvalsPerStart int
	// Backend is the MO backend; nil selects Basinhopping.
	Backend opt.Minimizer
	// Bounds optionally restricts the input space.
	Bounds []opt.Bound
	// ULP selects the ULP boundary distance (Limitation-2 mitigation).
	ULP bool
	// HighPrecision accumulates the multiplicative distance in scaled
	// double-double arithmetic, eliminating spurious zeros from product
	// underflow (the §5.2 higher-precision mitigation).
	HighPrecision bool
	// Sites restricts the analysis to a subset of branch sites.
	Sites map[int]bool
	// KeepValues bounds how many concrete boundary values are retained
	// per condition (statistics always cover all of them); zero
	// selects 16.
	KeepValues int
	// Workers sets multi-start parallelism: 0 selects runtime.NumCPU(),
	// 1 runs one worker. The report is identical for every
	// value — per-start traces are merged in start order, so parallelism
	// only changes wall-clock time.
	Workers int
}

func (o BoundaryOptions) starts() int {
	if o.Starts > 0 {
		return o.Starts
	}
	return 32
}

func (o BoundaryOptions) evalsPerStart() int {
	if o.EvalsPerStart > 0 {
		return o.EvalsPerStart
	}
	return 4000
}

func (o BoundaryOptions) backend() opt.Minimizer {
	if o.Backend != nil {
		return o.Backend
	}
	return &opt.Basinhopping{}
}

func (o BoundaryOptions) keep() int {
	if o.KeepValues > 0 {
		return o.KeepValues
	}
	return 16
}

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
	// Examples retains up to KeepValues concrete inputs.
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
func BoundaryValues(ctx context.Context, p *rt.Program, o BoundaryOptions) *BoundaryReport {
	wit := &instrument.BoundaryWitness{}
	rep := &BoundaryReport{}
	stats := map[ConditionKey]*ConditionStats{}
	labels := map[int]string{}
	for _, b := range p.Branches {
		labels[b.ID] = b.Label
	}

	// Every restart is independent: run them on the worker pool, each
	// with its own program instance, monitor, and trace, then fold the
	// traces in start order — the exact sample stream the serial loop
	// produced. Starts run in worker-sized batches so that at most one
	// batch of traces is retained at a time (the fold is a pure
	// concatenation in start order, so batching never changes the
	// report; Workers=1 keeps the serial loop's one-trace peak).
	batchSize := o.Workers
	if batchSize <= 0 {
		batchSize = runtime.NumCPU()
	}
	for base := 0; base < o.starts(); base += batchSize {
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		n := o.starts() - base
		if n > batchSize {
			n = batchSize
		}
		batch := opt.ParallelStarts(o.backend(), func(int) opt.Objective {
			inst := p.Instance()
			mon := &instrument.Boundary{ULP: o.ULP, HighPrecision: o.HighPrecision, Sites: o.Sites}
			return opt.Objective(inst.WeakDistance(mon))
		}, p.Dim, opt.ParallelConfig{
			Starts:      n,
			Workers:     o.Workers,
			Seed:        o.Seed + int64(base)*7919,
			SeedStride:  7919,
			MaxEvals:    o.evalsPerStart(),
			Bounds:      o.Bounds,
			StopAtZero:  false, // keep sampling: we want many boundary values
			RecordTrace: true,
			Ctx:         ctx,
		})

		for _, sr := range batch {
			if sr.Canceled {
				rep.Canceled = true
			}
			if sr.Trace == nil {
				continue // start never ran (cancelled before launch)
			}
			mergeBoundaryTrace(p, sr.Trace, wit, rep, stats, labels, o)
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
	return rep
}

// mergeBoundaryTrace folds one start's sample stream into the report:
// count samples, attribute every exact zero to its boundary
// condition(s) by witness replay, and maintain the Fig. 9 progress
// series. Only zeros need a visit: rep.Samples at a zero is the samples
// merged before this start plus the zero's 1-based index.
func mergeBoundaryTrace(p *rt.Program, tr *opt.Trace, wit *instrument.BoundaryWitness,
	rep *BoundaryReport, stats map[ConditionKey]*ConditionStats, labels map[int]string,
	o BoundaryOptions) {
	base := rep.Samples
	for _, smp := range tr.Zeros() {
		rep.Samples = base + smp.N
		rep.BoundaryValues++
		p.Execute(wit, smp.X)
		sites := wit.Sites()
		if len(sites) == 0 {
			rep.SoundnessViolations++
			continue
		}
		for _, site := range sites {
			if o.Sites != nil && !o.Sites[site] {
				continue
			}
			key := ConditionKey{Site: site, Negative: math.Signbit(smp.X[0])}
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
			if v := smp.X[0]; v < cs.Min {
				cs.Min = v
			}
			if v := smp.X[0]; v > cs.Max {
				cs.Max = v
			}
			if len(cs.Examples) < o.keep() {
				x := make([]float64, len(smp.X))
				copy(x, smp.X)
				cs.Examples = append(cs.Examples, x)
			}
		}
	}
	rep.Samples = base + tr.Len()
}
