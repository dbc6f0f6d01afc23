package analysis_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/rt"
)

// compileFig2 builds the interpreter-backed Fig. 2 twin, so the tests
// cover both substrates: stateless native ports (shared across workers)
// and interpreter programs (forked per start).
func compileFig2(t *testing.T) *rt.Program {
	t.Helper()
	const src = `
func prog(x double) {
    if (x <= 1.0) { x = x + 1.0; }
    var y double = x * x;
    if (y <= 4.0) { x = x - 1.0; }
}`
	mod, err := ir.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.New(mod).Program("prog")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkersDeterminism is the determinism table test: for a fixed
// seed, every analysis client must report identical findings at
// Workers=1 (the old serial path) and Workers=8, over both the native
// and the interpreter-backed Fig. 2.
func TestWorkersDeterminism(t *testing.T) {
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	programs := []struct {
		name string
		p    *rt.Program
	}{
		{"native", progs.Fig2()},
		{"interp", compileFig2(t)},
	}
	for _, pr := range programs {
		t.Run("boundary/"+pr.name, func(t *testing.T) {
			run := func(workers int) *analysis.BoundaryReport {
				rep, err := analysis.BoundaryValues(context.Background(), pr.p, analysis.Spec{
					Seed: 11, Starts: 8, Evals: 1000, Bounds: bounds,
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("boundary reports differ:\nserial   %+v\nparallel %+v", serial, parallel)
			}
			if serial.BoundaryValues == 0 {
				t.Error("no boundary values found (vacuous comparison)")
			}
		})
		t.Run("coverage/"+pr.name, func(t *testing.T) {
			run := func(workers int) *analysis.CoverReport {
				rep, err := analysis.Cover(context.Background(), pr.p, analysis.Spec{
					Seed: 12, Evals: 1000, Bounds: bounds,
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("cover reports differ:\nserial   %+v\nparallel %+v", serial, parallel)
			}
			if serial.Ratio() != 1 {
				t.Errorf("coverage %v (vacuous comparison)", serial.Ratio())
			}
		})
		t.Run("overflow/"+pr.name, func(t *testing.T) {
			run := func(workers int) *analysis.OverflowReport {
				rep, err := analysis.DetectOverflows(context.Background(), pr.p, analysis.Spec{
					Seed: 13, Evals: 1500, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep.Duration = 0 // wall clock is the one legitimately varying field
				return rep
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("overflow reports differ:\nserial   %+v\nparallel %+v", serial, parallel)
			}
			if len(serial.Findings) == 0 {
				t.Error("no overflows found (vacuous comparison)")
			}
		})
		t.Run("reach/"+pr.name, func(t *testing.T) {
			// x <= 1 taken, y <= 4 not taken: (x+1)^2 > 4, i.e. x < -3.
			target := []instrument.Decision{
				{Site: 0, Taken: true},
				{Site: 1, Taken: false},
			}
			run := func(workers int) core.Result {
				r, err := analysis.ReachPath(context.Background(), pr.p, analysis.Spec{
					Path: target,
					Seed: 14, Starts: 8, Evals: 2000, Bounds: bounds,
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("reach results differ:\nserial   %+v\nparallel %+v", serial, parallel)
			}
			if !serial.Found {
				t.Error("path not reached (vacuous comparison)")
			}
		})
	}
}
