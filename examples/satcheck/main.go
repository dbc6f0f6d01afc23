// Floating-point satisfiability by weak-distance minimization — the
// XSat instance (§2 Instance 5). Solves the paper's §1 motivating
// constraint (where SMT solvers need full FP bit-blasting) and a
// transcendental variant (where they give up entirely).
//
// Run: go run ./examples/satcheck
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/sat"
)

func main() {
	for _, src := range []string{
		"x < 1 && x + 1 >= 2",      // satisfiable: rounding at the binade edge
		"x < 1 && x + tan(x) >= 2", // satisfiable: via tan (Fig. 1b)
		"x < 1 && x > 2",           // unsatisfiable
		"x * x == 2",               // no exact floating-point sqrt(2)
	} {
		f, vars, err := sat.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		r := sat.Solve(context.Background(), f, core.Options{
			Seed: 1, Starts: 6, EvalsPerStart: 10000,
			Bounds: bounds(f.Dim(), -4, 4),
		}, false)
		fmt.Printf("%-28s -> ", src)
		if r.Verdict == sat.Sat {
			fmt.Print("sat:")
			for _, name := range sat.VarNames(vars) {
				fmt.Printf(" %s=%.17g", name, r.Model[vars[name]])
			}
			fmt.Println()
		} else {
			fmt.Printf("unknown (min W = %.3g)\n", r.MinDistance)
		}
	}
}

func bounds(dim int, lo, hi float64) []opt.Bound {
	bs := make([]opt.Bound, dim)
	for i := range bs {
		bs[i] = opt.Bound{Lo: lo, Hi: hi}
	}
	return bs
}
