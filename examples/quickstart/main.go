// Quickstart: analyze your own floating-point function with
// weak-distance minimization.
//
// The example wraps a small Go function as an instrumentable program,
// then (1) finds its boundary values and (2) finds an input reaching a
// chosen path — the two §4 analyses — in a few dozen lines.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

func main() {
	// A program with two branches: dom(Prog) = F^2.
	//
	//	func Prog(a, b) {
	//	    s := a*a + b*b      // op 0, op 1, op 2
	//	    if s <= 25 {        // branch 0
	//	        if a > b { … }  // branch 1
	//	    }
	//	}
	prog := &rt.Program{
		Name: "circle",
		Dim:  2,
		Ops: []rt.OpInfo{
			{ID: 0, Label: "a*a"},
			{ID: 1, Label: "b*b"},
			{ID: 2, Label: "a*a + b*b"},
		},
		Branches: []rt.BranchInfo{
			{ID: 0, Label: "s <= 25", Op: fp.LE},
			{ID: 1, Label: "a > b", Op: fp.GT},
		},
		Run: func(ctx *rt.Ctx, x []float64) {
			a, b := x[0], x[1]
			s := ctx.Op(2, ctx.Op(0, a*a)+ctx.Op(1, b*b))
			if ctx.Cmp(0, fp.LE, s, 25) {
				ctx.Cmp(1, fp.GT, a, b)
			}
		},
	}
	bounds := []opt.Bound{{Lo: -20, Hi: 20}, {Lo: -20, Hi: 20}}

	// 1. Boundary value analysis: inputs with a*a+b*b == 25 exactly, or
	// a == b inside the circle.
	rep, err := analysis.BoundaryValues(context.Background(), prog, analysis.Spec{
		Seed: 1, Starts: 12, Bounds: bounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boundary value analysis: %d boundary values across %d conditions\n",
		rep.BoundaryValues, len(rep.Conditions))
	for _, c := range rep.Conditions {
		if len(c.Examples) > 0 {
			fmt.Printf("  condition %q: e.g. %v (hits %d)\n", c.Label, c.Examples[0], c.Hits)
		}
	}

	// 2. Path reachability: drive the program inside the circle with
	// a > b.
	r, err := analysis.ReachPath(context.Background(), prog, analysis.Spec{
		Seed: 2, Bounds: bounds,
		Path: []instrument.Decision{
			{Site: 0, Taken: true},
			{Site: 1, Taken: true},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("path [inside circle, a > b]: %v\n", r)
}
