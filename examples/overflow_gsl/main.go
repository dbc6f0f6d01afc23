// Overflow detection on the GSL special-function ports — the paper's
// §6.3 experiment (Algorithm 3 / fpod). Prints Tables 3-5: per-function
// overflow counts, the per-operation Bessel findings, and the
// inconsistency/bug replays.
//
// Run: go run ./examples/overflow_gsl
package main

import (
	"fmt"

	"repro/internal/paper"
)

func main() {
	study := paper.GSLStudyWorkers(1, 6000, 0)
	fmt.Print(study.FormatTable3())
	fmt.Println()
	fmt.Print(study.FormatTable4())
	fmt.Println()
	fmt.Print(study.FormatTable5())
}
