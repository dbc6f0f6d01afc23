// Path reachability and assertion checking on an FPL source program —
// the paper's Fig. 1 analysis end to end: compile the DSL, target the
// path that violates the assertion, and let weak-distance minimization
// find the witness input.
//
// Run: go run ./examples/pathreach
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
)

const src = `
// The paper's Fig. 1(a): does the assertion hold?
func prog(x double) {
    if (x < 1.0) {
        x = x + 1.0;
        assert(x < 2.0);
    }
}`

func main() {
	mod, err := ir.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	it := interp.New(mod)
	p, err := it.Program("prog")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("branch sites:")
	for _, b := range mod.BranchSites {
		fmt.Printf("  br#%d %s\n", b.ID, b.Label)
	}

	// Target: enter the branch (site 0 true) and violate the assertion
	// (site 1 false: NOT x < 2).
	r, err := analysis.ReachPath(context.Background(), p, analysis.Spec{
		Seed:   1,
		Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
		Path: []instrument.Decision{
			{Site: 0, Taken: true},
			{Site: 1, Taken: false},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("assertion-violating input search:", r)
	if r.Found {
		// Replay concretely: the interpreter records the failure.
		it.ClearFailures()
		if _, err := it.Run("prog", r.X); err != nil {
			log.Fatal(err)
		}
		for _, f := range it.Failures {
			fmt.Println("confirmed:", f)
		}
	}
}
