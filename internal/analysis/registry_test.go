package analysis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/rt"
)

func TestRegistryContents(t *testing.T) {
	want := []string{"bva", "coverage", "overflow", "reach", "xsat", "nan"}
	got := analysis.Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for _, a := range analysis.All() {
		if a.DefaultSpec().Analysis != a.Name() {
			t.Errorf("%s: DefaultSpec names %q", a.Name(), a.DefaultSpec().Analysis)
		}
		if a.Describe() == "" {
			t.Errorf("%s: empty description", a.Name())
		}
		k := a.Knobs()
		if k.Program == k.Formula {
			t.Errorf("%s: wants program=%v formula=%v; exactly one input kind expected",
				a.Name(), k.Program, k.Formula)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for alias, canon := range map[string]string{
		"bva": "bva", "boundary": "bva", "fpbva": "bva", "BVA": "bva",
		"coverme": "coverage", "cover": "coverage",
		"fpod": "overflow", "fpreach": "reach", "path": "reach",
		"sat": "xsat", "nonfinite": "nan", "domain": "nan",
	} {
		a, err := analysis.Lookup(alias)
		if err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
			continue
		}
		if a.Name() != canon {
			t.Errorf("Lookup(%q) = %s, want %s", alias, a.Name(), canon)
		}
	}
	_, err := analysis.Lookup("nope")
	if err == nil || !strings.Contains(err.Error(), "available: bva, coverage") {
		t.Errorf("unknown-analysis error should list the registry: %v", err)
	}
}

func TestRegistryRunErrors(t *testing.T) {
	spec := func(name string) analysis.Spec {
		a, err := analysis.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return a.DefaultSpec()
	}
	cases := []struct {
		name string
		in   analysis.Input
		spec analysis.Spec
		want string
	}{
		{"bva", analysis.Input{}, spec("bva"), "no program"},
		{"coverage", analysis.Input{}, spec("coverage"), "no program"},
		{"reach", analysis.Input{Program: progs.Fig2()}, spec("reach"), "empty path"},
		{"xsat", analysis.Input{}, spec("xsat"), "empty formula"},
		{"xsat", analysis.Input{}, withFormula(spec("xsat"), "x <"), "expected expression"},
		{"nan", analysis.Input{Program: progs.Fig2()},
			withBackend(spec("nan"), "nope"), "unknown backend"},
		{"coverage", analysis.Input{Program: progs.Fig2()},
			withWorkers(spec("coverage"), analysis.MaxWorkers+1), "workers must be at most"},
	}
	for _, tc := range cases {
		a, err := analysis.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = a.Run(context.Background(), tc.in, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func withFormula(s analysis.Spec, f string) analysis.Spec { s.Formula = f; return s }
func withBackend(s analysis.Spec, b string) analysis.Spec { s.Backend = b; return s }
func withWorkers(s analysis.Spec, n int) analysis.Spec    { s.Workers = n; return s }

// TestNaNAnalysis exercises the registry's sixth analysis end to end on
// the native fig2 program: x*x overflows to +Inf for huge x, which the
// non-finite hunt must find and classify.
func TestNaNAnalysis(t *testing.T) {
	a, err := analysis.Lookup("nan")
	if err != nil {
		t.Fatal(err)
	}
	spec := a.DefaultSpec()
	spec.Evals = 2000
	spec.Workers = 1
	rep, err := a.Run(context.Background(), analysis.Input{Program: progs.Fig2()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	nf, ok := rep.(*analysis.NonFiniteReport)
	if !ok {
		t.Fatalf("report type %T", rep)
	}
	if len(nf.Findings) == 0 {
		t.Fatal("no non-finite findings on fig2")
	}
	for _, f := range nf.Findings {
		if f.Class != "NaN" && f.Class != "+Inf" && f.Class != "-Inf" {
			t.Errorf("finding at op %d: class %q", f.Site, f.Class)
		}
		if f.Label == "" {
			t.Errorf("finding at op %d: no label", f.Site)
		}
	}
	if rep.Failed() {
		t.Error("nan reports are informational; Failed must be false")
	}
	var buf bytes.Buffer
	rep.Render(&buf, analysis.Input{Program: progs.Fig2()})
	if !strings.Contains(buf.String(), "non-finite values") {
		t.Errorf("render: %q", buf.String())
	}
}

// TestNonFiniteExcludesSaturation pins the one deliberate difference
// from the overflow distance: a finite result of magnitude MAX is an
// overflow finding but NOT a non-finite finding.
func TestNonFiniteExcludesSaturation(t *testing.T) {
	max := math.MaxFloat64
	p := &rt.Program{
		Name: "saturate",
		Dim:  1,
		Ops:  []rt.OpInfo{{ID: 0, Label: "clamp"}},
		Run: func(ctx *rt.Ctx, x []float64) {
			v := x[0]
			if v > max {
				v = max
			} else if v < -max {
				v = -max
			}
			ctx.Op(0, v) // always finite, reaches ±MAX exactly
		},
	}
	mon := instrument.NewNonFinite()
	if w := p.Execute(mon, []float64{max}); w == 0 {
		t.Errorf("saturated MAX counted as non-finite (w=%v)", w)
	}
	ov := instrument.NewOverflow()
	if w := p.Execute(ov, []float64{max}); w != 0 {
		t.Errorf("saturated MAX must still count as overflow (w=%v)", w)
	}
	if w := p.Execute(mon, []float64{math.NaN()}); w != 0 {
		t.Errorf("NaN input through identity op: w=%v, want 0", w)
	}
}

// TestReportsSerializable: every program analysis report round-trips
// through JSON (the fpserve contract).
func TestReportsSerializable(t *testing.T) {
	p := progs.Fig2()
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	specs := []analysis.Spec{
		{Analysis: "bva", Seed: 1, Starts: 2, Evals: 200, Workers: 1, Bounds: bounds},
		{Analysis: "coverage", Seed: 2, Evals: 300, Stall: 2, Workers: 1, Bounds: bounds},
		{Analysis: "overflow", Seed: 3, Evals: 300, Rounds: 4, Workers: 1},
		{Analysis: "nan", Seed: 5, Evals: 300, Rounds: 4, Workers: 1},
		{Analysis: "reach", Seed: 4, Starts: 2, Evals: 300, Workers: 1, Bounds: bounds,
			Path: []instrument.Decision{{Site: 0, Taken: true}}},
		{Analysis: "xsat", Seed: 1, Starts: 2, Evals: 300, Workers: 1,
			Bounds: []opt.Bound{{Lo: -4, Hi: 4}}, Formula: "x < 1 && x + 1 >= 2"},
	}
	for _, s := range specs {
		a, err := analysis.Lookup(s.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		in := analysis.Input{}
		if a.Knobs().Program {
			in.Program = p
		}
		rep, err := a.Run(context.Background(), in, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Analysis, err)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("%s report not JSON-serializable: %v", s.Analysis, err)
		}
		if rep.Summary() == "" {
			t.Errorf("%s: empty summary", s.Analysis)
		}
	}
}
