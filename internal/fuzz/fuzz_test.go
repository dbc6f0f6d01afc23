package fuzz_test

import (
	"math"
	"testing"

	"repro/internal/fuzz"
)

// flipBit is the canonical injected engine bug: it perturbs every VM
// result by one ULP (NaNs map to 0 so the corruption never hides inside
// the NaN equivalence class).
func flipBit(_ string, r float64) float64 {
	if math.IsNaN(r) {
		return 0
	}
	return math.Float64frombits(math.Float64bits(r) ^ 1)
}

// TestCampaignClean runs a small end-to-end campaign — every oracle
// layer, every backend, every analysis — and requires zero violations:
// the system agrees with itself over generated programs.
func TestCampaignClean(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	res := fuzz.Run(fuzz.Options{N: n, Seed: 1, Evals: 150, Recheck: true})
	if !res.Ok() {
		for i, v := range res.Violations {
			if i >= 3 {
				t.Errorf("(%d more violations suppressed)", len(res.Violations)-3)
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("campaign not clean: %s", res.Summary())
	}
	if res.Programs != n {
		t.Fatalf("ran %d programs, want %d", res.Programs, n)
	}
	if res.Jobs == 0 || res.BackendRuns == 0 || res.EngineInputs == 0 {
		t.Fatalf("some oracle layer did not run: %s", res.Summary())
	}
	if res.CacheHits == 0 {
		t.Fatalf("pipeline module cache never hit across %d jobs (6 analyses share each source)", res.Jobs)
	}
}

// TestCampaignDeterministic: identical options must produce identical
// summaries (the campaign is reproducible from its seed alone).
func TestCampaignDeterministic(t *testing.T) {
	opts := fuzz.Options{N: 4, Seed: 7, Evals: 100}
	a := fuzz.Run(opts)
	b := fuzz.Run(opts)
	if a.Summary() != b.Summary() {
		t.Fatalf("campaign not deterministic:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestEngineOracleCatchesInjectedDivergence: a deliberately tampered VM
// result must be caught by oracle layer 1 — the oracle actually bites.
func TestEngineOracleCatchesInjectedDivergence(t *testing.T) {
	src, _, inputs := fuzz.GenerateProgram(1, 0, 1)
	vs := fuzz.CheckEngines(src, "f", inputs, fuzz.EngineCheck{TamperVM: flipBit})
	if len(vs) == 0 {
		t.Fatal("tampered VM result not caught by the engine oracle")
	}
	if vs[0].Layer != "engine" {
		t.Fatalf("violation layer %q, want engine", vs[0].Layer)
	}
}

// TestCampaignCatchesInjectedDivergence: the same fault injected into a
// full campaign surfaces as a violation (and the campaign stops at its
// violation budget rather than running forever).
func TestCampaignCatchesInjectedDivergence(t *testing.T) {
	res := fuzz.Run(fuzz.Options{
		N: 10, Seed: 1, Evals: 60, MaxViolations: 3,
		SkipBackends: true, SkipReplay: true,
		Engine: fuzz.EngineCheck{TamperVM: flipBit},
	})
	if res.Ok() {
		t.Fatal("campaign missed the injected engine divergence")
	}
	if len(res.Violations) > 3+1 {
		t.Fatalf("violation budget not honored: %d violations", len(res.Violations))
	}
}
