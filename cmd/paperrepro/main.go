// Command paperrepro regenerates every table and figure of the paper's
// evaluation section (§6) from this repository's implementations.
//
// Usage:
//
//	paperrepro -all
//	paperrepro -table 1        # MO backend sanity check
//	paperrepro -table 2        # GNU sin boundary value analysis
//	paperrepro -table 3        # GSL overflow summary
//	paperrepro -table 4        # per-operation Bessel overflows
//	paperrepro -table 5        # inconsistencies and confirmed bugs
//	paperrepro -lifted -table 3  # GSL study over the Go-frontend-lifted corpus
//	paperrepro -fig 3 -fig 4   # weak-distance graphs + samplings
//	paperrepro -fig 7          # characteristic-function ablation
//	paperrepro -fig 9          # sin condition-discovery series
//
// The -engine flag selects the FPL execution engine (vm — the compiled
// flat-code VM, the default — or tree, the reference tree-walking
// interpreter) for every interpreter-backed program in the run. The
// engines' own evaluation throughput is measured by the repository's
// BenchmarkEvalEngine (go test -run '^$' -bench BenchmarkEvalEngine .).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/interp"
	"repro/internal/paper"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var tables, figs intList
	flag.Var(&tables, "table", "table number to regenerate (repeatable)")
	flag.Var(&figs, "fig", "figure number to regenerate (repeatable)")
	all := flag.Bool("all", false, "regenerate everything")
	seed := flag.Int64("seed", 1, "random seed")
	budget := flag.Int("budget", 0, "evaluation budget scale (0 = defaults)")
	workers := flag.Int("workers", 0, "parallel search workers (0 = all CPUs, 1 = serial)")
	engine := flag.String("engine", "vm", "FPL execution engine: vm (compiled flat code) or tree (reference tree-walker)")
	lifted := flag.Bool("lifted", false,
		"run the GSL study (tables 3-5) over the corpus lifted from the real Go sources by the Go frontend, cross-checking the curated findings")
	flag.Parse()

	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	interp.DefaultEngine = eng

	if *all {
		tables = intList{1, 2, 3, 4, 5}
		figs = intList{3, 4, 7, 9}
	}
	if len(tables) == 0 && len(figs) == 0 {
		flag.Usage()
		os.Exit(1)
	}

	want := func(l intList, n int) bool {
		for _, v := range l {
			if v == n {
				return true
			}
		}
		return false
	}

	var sinStudy *paper.SinStudy
	needSin := want(tables, 2) || want(figs, 9)
	if needSin {
		sinStudy = paper.SinBoundaryStudyWorkers(*seed, 0, *budget, *workers)
	}
	var gslStudy *paper.GSLStudyResult
	if want(tables, 3) || want(tables, 4) || want(tables, 5) {
		if *lifted {
			var err error
			gslStudy, err = paper.GSLStudyLiftedWorkers(*seed, *budget, *workers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro: -lifted:", err)
				os.Exit(1)
			}
		} else {
			gslStudy = paper.GSLStudyWorkers(*seed, *budget, *workers)
		}
	}

	if want(tables, 1) {
		fmt.Println(paper.Table1(*seed, *budget).Format())
	}
	if want(figs, 3) {
		fmt.Println(paper.Fig3(*seed, *budget).Format())
	}
	if want(figs, 4) {
		fmt.Println(paper.Fig4(*seed, *budget).Format())
	}
	if want(figs, 7) {
		fmt.Println(paper.Fig7(*seed, *budget).Format())
	}
	if want(tables, 2) {
		fmt.Println(sinStudy.FormatTable2())
	}
	if want(figs, 9) {
		fmt.Println(sinStudy.FormatFig9())
	}
	if want(tables, 3) {
		fmt.Println(gslStudy.FormatTable3())
	}
	if want(tables, 4) {
		fmt.Println(gslStudy.FormatTable4())
	}
	if want(tables, 5) {
		fmt.Println(gslStudy.FormatTable5())
	}
}
