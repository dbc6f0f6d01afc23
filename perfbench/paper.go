package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/libm"
	"repro/internal/paper"
)

// paperSeedCount is the length of the paper workload's seed list: one
// regeneration pass reproduces §6 once per listed seed.
const paperSeedCount = 32

// paperSeeds derives the seed list from the run seed.
func paperSeeds(seed int64) []int64 {
	rng := seedStream(seed, 7)
	out := make([]int64, paperSeedCount)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// regeneration is one seed's §6 output, masked, with its headline
// facts and per-part timings.
type regeneration struct {
	Seed   int64
	Text   string // every table and figure, Table 3's T column blanked
	Evals  int    // evaluations of the Table 2 and Table 3-5 searches
	Parts  map[string]time.Duration
	Checks []string // failed headline checks
}

// regenerate reproduces the §6 evaluation for one seed the way
// `paperrepro -all` does, at default budgets and workers, with a span
// around each paper call (job identifies the regeneration).
func regenerate(seed int64, tr *tracer, job int64) regeneration {
	r := regeneration{Seed: seed, Parts: map[string]time.Duration{}}
	root := tr.begin("paper.regenerate", job, 0, 0)
	defer tr.end(root)
	var sb strings.Builder
	timed := func(part string, fn func()) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.add(part, job, 0, root, t0, t1)
		r.Parts[part] += t1.Sub(t0)
	}
	var sin *paper.SinStudy
	var gsl *paper.GSLStudyResult
	timed("paper.sin", func() { sin = paper.SinBoundaryStudyWorkers(seed, 0, 0, 0) })
	timed("paper.gsl", func() { gsl = paper.GSLStudyWorkers(seed, 0, 0) })
	timed("paper.table1", func() { sb.WriteString(paper.Table1(seed, 0).Format()) })
	timed("paper.figs", func() {
		sb.WriteString(paper.Fig3(seed, 0).Format())
		sb.WriteString(paper.Fig4(seed, 0).Format())
		sb.WriteString(paper.Fig7(seed, 0).Format())
	})
	timed("paper.sin", func() {
		sb.WriteString(sin.FormatTable2())
		sb.WriteString(sin.FormatFig9())
	})
	timed("paper.gsl", func() {
		masked := *gsl
		masked.Rows = append([]paper.Table3Row(nil), gsl.Rows...)
		for i := range masked.Rows {
			masked.Rows[i].Seconds = 0
		}
		sb.WriteString(masked.FormatTable3())
		sb.WriteString(gsl.FormatTable4())
		sb.WriteString(gsl.FormatTable5())
	})
	r.Text = sb.String()
	r.Evals = sin.Report.Samples
	for _, rep := range gsl.OverflowReports {
		r.Evals += rep.Evals
	}
	r.Checks = headlineChecks(sin, gsl)
	return r
}

// headlineChecks asserts the paper's headline values: Table 2 hits all
// eight reachable sin conditions, never the 2^1024 pair, with no
// soundness violation; Table 3 finds bessel |Op| = 23 with |O| >= 21,
// hyperg |Op| = 8 with |O| > 0, and airy |B| = 2.
func headlineChecks(sin *paper.SinStudy, gsl *paper.GSLStudyResult) []string {
	var bad []string
	unreached := len(libm.SinThresholds) - 1
	for site := range libm.SinThresholds {
		for _, neg := range []bool{false, true} {
			hit := sin.Report.Condition(site, neg) != nil
			if site == unreached && hit {
				bad = append(bad, fmt.Sprintf("Table 2: unreachable condition %d (neg=%v) reported hit", site, neg))
			}
			if site != unreached && !hit {
				bad = append(bad, fmt.Sprintf("Table 2: condition %d (neg=%v) not hit", site, neg))
			}
		}
	}
	if v := sin.Report.SoundnessViolations; v != 0 {
		bad = append(bad, fmt.Sprintf("Table 2: %d soundness violations", v))
	}
	rows := map[string]paper.Table3Row{}
	for _, r := range gsl.Rows {
		rows[r.File] = r
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	b, h, a := rows["bessel"], rows["hyperg"], rows["airy"]
	check(b.Ops == 23 && b.Overflows >= 21, "Table 3: bessel |Op|=%d |O|=%d, want 23 and >= 21", b.Ops, b.Overflows)
	check(h.Ops == 8 && h.Overflows > 0, "Table 3: hyperg |Op|=%d |O|=%d, want 8 and > 0", h.Ops, h.Overflows)
	check(a.Bugs == 2, "Table 3: airy |B|=%d, want 2", a.Bugs)
	return bad
}

// digestText hashes regenerated outputs in order.
func digestText(texts []string) string {
	h := sha256.New()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// warmSeed is the seed of the untimed set-up regenerations, drawn apart
// from the timed list.
func warmSeed(seed int64) int64 { return 1 + rand.New(rand.NewSource(^seed)).Int63n(1<<31) }
