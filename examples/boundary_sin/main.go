// Boundary value analysis of the glibc-2.19 sin port — the paper's §6.2
// case study. Prints the Table 2 rows and the Fig. 9 discovery series.
//
// Run: go run ./examples/boundary_sin
package main

import (
	"fmt"

	"repro/internal/paper"
)

func main() {
	study := paper.SinBoundaryStudyWorkers(1, 64, 4000, 0)
	fmt.Print(study.FormatTable2())
	fmt.Println()
	fmt.Print(study.FormatFig9())
}
