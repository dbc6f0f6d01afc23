// Package paper regenerates every table and figure of the paper's
// evaluation (§6) from this repository's implementations. Each
// experiment returns structured data plus a Format method rendering a
// paper-style text table; cmd/paperrepro prints them and bench_test.go
// measures them.
package paper

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/rt"
)

// Table1Row is one backend × weak-distance cell pair of Table 1.
type Table1Row struct {
	Backend string
	// BoundaryMin / PathMin are the best weak-distance values found.
	BoundaryMin float64
	PathMin     float64
	// BoundaryZeros lists the distinct boundary values found (x*
	// column); PathZeros the distinct path solutions, summarized by
	// their range.
	BoundaryZeros []float64
	PathZeros     []float64
}

// Table1Result is the §6.1 sanity check: three MO backends applied to
// the boundary and path weak distances of the Fig. 2 program.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the experiment. Budgets are per backend and weak
// distance; seeds fix the sampling.
func Table1(seed int64, evals int) *Table1Result { return table1(seed, evals, 0) }

// table1 is Table1 with each cell's restarts on workers goroutines
// (0 = all CPUs); the result is identical for every value.
func table1(seed int64, evals, workers int) *Table1Result {
	if evals <= 0 {
		evals = 60000
	}
	p := progs.Fig2()
	backends := []opt.Minimizer{
		&opt.Basinhopping{},
		&opt.DifferentialEvolution{InitSpan: 100},
		&opt.Powell{},
	}
	pathTarget := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}

	res := &Table1Result{}
	for bi, backend := range backends {
		row := Table1Row{Backend: backend.Name()}

		// Boundary value analysis weak distance.
		row.BoundaryMin, row.BoundaryZeros = collectZeros(backend, p, func() rt.Monitor {
			return &instrument.Boundary{}
		}, seed+int64(bi)*101, evals, workers)

		// Path reachability weak distance.
		row.PathMin, row.PathZeros = collectZeros(backend, p, func() rt.Monitor {
			return &instrument.Path{Target: pathTarget}
		}, seed+int64(bi)*101+50, evals, workers)

		res.Rows = append(res.Rows, row)
	}
	return res
}

// collectZeros runs several restarts of the backend on the weak
// distance of p under a fresh monitor each, returning the best minimum
// and the sorted distinct zero points found. Neither depends on the
// order the restarts run in.
func collectZeros(backend opt.Minimizer, p *rt.Program, monitor func() rt.Monitor, seed int64, evals, workers int) (float64, []float64) {
	const starts = 12
	found := make([][]float64, starts)
	results := opt.ParallelStarts(backend, func(s int) opt.Objective {
		w := p.WeakDistance(monitor())
		return func(x []float64) float64 {
			f := w(x)
			if f == 0 {
				found[s] = append(found[s], x[0])
			}
			return f
		}
	}, 1, opt.ParallelConfig{
		Starts:     starts,
		Workers:    workers,
		Seed:       seed,
		SeedStride: 9973,
		MaxEvals:   evals / starts,
		Bounds:     []opt.Bound{{Lo: -100, Hi: 100}},
	})
	minW := math.Inf(1)
	for _, r := range results {
		if r.F < minW {
			minW = r.F
		}
	}
	zeros := slices.Concat(found...)
	slices.Sort(zeros)
	return minW, slices.Compact(zeros)
}

// Format renders the table in the paper's layout.
func (t *Table1Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Different MO backends applied on two weak distances.\n")
	sb.WriteString(fmt.Sprintf("%-24s %-14s %-34s %-14s %s\n",
		"", "BVA W*", "BVA x*", "Path W*", "Path x*"))
	for _, r := range t.Rows {
		sb.WriteString(fmt.Sprintf("%-24s %-14.6g %-34s %-14.6g %s\n",
			r.Backend,
			r.BoundaryMin, summarizeZeros(r.BoundaryZeros, 4),
			r.PathMin, summarizeRange(r.PathZeros)))
	}
	return sb.String()
}

// summarizeZeros lists up to n distinct zeros.
func summarizeZeros(zs []float64, n int) string {
	if len(zs) == 0 {
		return "NA"
	}
	shown := make([]string, 0, n+1)
	for i, z := range dedupeInteresting(zs) {
		if i >= n {
			shown = append(shown, "…")
			break
		}
		shown = append(shown, fmt.Sprintf("%.17g", z))
	}
	return strings.Join(shown, ", ")
}

// dedupeInteresting prefers "landmark" zeros (integers and near-1
// values) so the paper's -3, 1, 2, 0.99…9 show first.
func dedupeInteresting(zs []float64) []float64 {
	var landmarks, rest []float64
	for _, z := range zs {
		if z == math.Trunc(z) || (z > 0.99 && z < 1) {
			landmarks = append(landmarks, z)
		} else {
			rest = append(rest, z)
		}
	}
	return append(landmarks, rest...)
}

// summarizeRange renders a zero set as its covering interval.
func summarizeRange(zs []float64) string {
	if len(zs) == 0 {
		return "NA"
	}
	return fmt.Sprintf("%d zeros in [%.4g, %.4g]", len(zs), zs[0], zs[len(zs)-1])
}
