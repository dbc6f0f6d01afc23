package paper

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/libm"
)

// SinStudy carries both §6.2 artifacts: Table 2 (per-condition boundary
// values of GNU sin) and Figure 9 (conditions triggered vs samples).
type SinStudy struct {
	Report *analysis.BoundaryReport
}

// SinBoundaryStudyWorkers runs boundary value analysis on the
// glibc-2.19 sin port. starts/evals control the search effort (0 = 64
// starts of 4000 evaluations; the paper used 6.4M samples, and these
// defaults reach all 8 reachable conditions far cheaper because the
// integer dispatch key gives a clean gradient). Restarts run on workers
// goroutines (0 = all CPUs); the report is identical for every value.
func SinBoundaryStudyWorkers(seed int64, starts, evals, workers int) *SinStudy {
	if starts <= 0 {
		starts = 64
	}
	if evals <= 0 {
		evals = 4000
	}
	rep := analysis.BoundaryValues(context.Background(), libm.SinProgram(), analysis.BoundaryOptions{
		Seed:          seed,
		Starts:        starts,
		EvalsPerStart: evals,
		Workers:       workers,
	})
	return &SinStudy{Report: rep}
}

// FormatTable2 renders Table 2: per branch and sign, the reference
// boundary value, the found min/max, and hit counts.
func (s *SinStudy) FormatTable2() string {
	var sb strings.Builder
	sb.WriteString("Table 2. Case study with Glibc sin: boundary value analysis.\n")
	sb.WriteString(fmt.Sprintf("samples=%d boundary-values=%d soundness-violations=%d\n",
		s.Report.Samples, s.Report.BoundaryValues, s.Report.SoundnessViolations))
	sb.WriteString(fmt.Sprintf("%-4s %-40s %-15s %-15s %-15s %s\n",
		"", "branch", "ref", "min", "max", "hits"))
	for site := 0; site < 5; site++ {
		for _, neg := range []bool{false, true} {
			sign := "+"
			ref := libm.SinBoundaryRefs[site]
			if neg {
				sign = "-"
				ref = -ref
			}
			label := fmt.Sprintf("k < %#x", libm.SinThresholds[site])
			c := s.Report.Condition(site, neg)
			if c == nil {
				sb.WriteString(fmt.Sprintf("%-4s %-40s %-15.6g %-15s %-15s %s\n",
					sign, label, ref, "unreached", "unreached", "0"))
				continue
			}
			sb.WriteString(fmt.Sprintf("%-4s %-40s %-15.6g %-15.7g %-15.7g %d\n",
				sign, label, ref, c.Min, c.Max, c.Hits))
		}
	}
	return sb.String()
}

// FormatFig9 renders the Figure 9 series: number of triggered boundary
// conditions against the sampling index.
func (s *SinStudy) FormatFig9() string {
	var sb strings.Builder
	sb.WriteString("Fig. 9. GNU sin: #triggered boundary conditions (y) vs samples (x).\n")
	for _, p := range s.Report.Progress {
		sb.WriteString(fmt.Sprintf("  %10d  %2d\n", p.Samples, p.Conditions))
	}
	if n := len(s.Report.Progress); n > 0 {
		sb.WriteString(fmt.Sprintf("final: %d conditions after %d samples\n",
			s.Report.Progress[n-1].Conditions, s.Report.Samples))
	}
	return sb.String()
}
