package paper

import (
	"fmt"
	"io"
	"slices"
)

// AllTables and AllFigs are the §6 tables and figures this package
// regenerates (paperrepro -all).
var (
	AllTables = []int{1, 2, 3, 4, 5}
	AllFigs   = []int{3, 4, 7, 9}
)

// Render regenerates the selected tables and figures and writes them to
// w in paperrepro's order: Table 1, Figures 3, 4 and 7, Table 2,
// Figure 9, then Tables 3-5. The sin study runs once for Table 2 and
// Figure 9, the GSL study once for Tables 3-5. budget scales the
// evaluation budgets (0 = defaults); workers sets the search
// parallelism (0 = all CPUs) and never changes the output.
func Render(w io.Writer, tables, figs []int, seed int64, budget, workers int) {
	var sin *SinStudy
	if slices.Contains(tables, 2) || slices.Contains(figs, 9) {
		sin = SinBoundaryStudyWorkers(seed, 0, budget, workers)
	}
	var gsl *GSLStudyResult
	if slices.Contains(tables, 3) || slices.Contains(tables, 4) || slices.Contains(tables, 5) {
		gsl = GSLStudyWorkers(seed, budget, workers)
	}

	if slices.Contains(tables, 1) {
		fmt.Fprintln(w, Table1(seed, budget).Format())
	}
	if slices.Contains(figs, 3) {
		fmt.Fprintln(w, Fig3(seed, budget).Format())
	}
	if slices.Contains(figs, 4) {
		fmt.Fprintln(w, Fig4(seed, budget).Format())
	}
	if slices.Contains(figs, 7) {
		fmt.Fprintln(w, Fig7(seed, budget).Format())
	}
	if slices.Contains(tables, 2) {
		fmt.Fprintln(w, sin.FormatTable2())
	}
	if slices.Contains(figs, 9) {
		fmt.Fprintln(w, sin.FormatFig9())
	}
	if slices.Contains(tables, 3) {
		fmt.Fprintln(w, gsl.FormatTable3())
	}
	if slices.Contains(tables, 4) {
		fmt.Fprintln(w, gsl.FormatTable4())
	}
	if slices.Contains(tables, 5) {
		fmt.Fprintln(w, gsl.FormatTable5())
	}
}
