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
//	paperrepro -fig 3 -fig 4   # weak-distance graphs + samplings
//	paperrepro -fig 7          # characteristic-function ablation
//	paperrepro -fig 9          # sin condition-discovery series
//
// Every §6 program is a native port, so the output is the same on every
// host: -workers changes wall-clock time only, and `paperrepro -all
// -seed 1` is pinned byte for byte (Table 3's T column aside) by
// testdata/golden/paper/all_seed1.txt.
package main

import (
	"flag"
	"fmt"
	"os"

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
	workers := flag.Int("workers", 0, "parallel search workers (0 = all CPUs)")
	flag.Parse()

	if *all {
		tables, figs = paper.AllTables, paper.AllFigs
	}
	if len(tables) == 0 && len(figs) == 0 {
		flag.Usage()
		os.Exit(1)
	}
	paper.Render(os.Stdout, tables, figs, *seed, *budget, *workers)
}
