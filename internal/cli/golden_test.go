package cli_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/pipeline"
)

// durationRE matches the wall-clock field of the fpod/nan report
// header, the one nondeterministic byte sequence in the text output.
var durationRE = regexp.MustCompile(`evals, \d+\.\d{2}s\)`)

func normalizeDuration(s string) string {
	return durationRE.ReplaceAllString(s, "evals, X.XXs)")
}

// TestLegacyCLIGoldenOutput locks `fpanalyze <alias>` text output to
// the byte-exact output of the original per-analysis tools (fpbva,
// coverme, fpod, fpreach, xsat): the golden files under testdata/golden
// were captured from them on the same arguments, and each tool's name
// is a registry alias, so `fpanalyze fpbva ARGS` reproduces `fpbva
// ARGS`.
func TestLegacyCLIGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is minutes of minimization in -short mode")
	}
	fixture := func(name string) string { return filepath.Join("..", "..", "testdata", name) }
	cases := []struct {
		golden string
		args   []string // `fpanalyze` arguments, led by the tool's alias
		code   int
	}{
		{"fpbva_fig2",
			[]string{"fpbva", "-builtin", "fig2", "-seed", "1", "-starts", "4", "-evals", "500", "-bounds", "-100:100"}, 0},
		{"fpbva_fig2fpl",
			[]string{"fpbva", "-func", "prog", "-seed", "1", "-starts", "4", "-evals", "500", "-bounds", "-100:100", fixture("fig2.fpl")}, 0},
		{"coverme_fig2",
			[]string{"coverme", "-builtin", "fig2", "-seed", "2", "-evals", "500", "-bounds", "-1000:1000"}, 0},
		{"coverme_fig2fpl",
			[]string{"coverme", "-func", "prog", "-seed", "2", "-evals", "500", "-bounds", "-100:100", fixture("fig2.fpl")}, 0},
		{"fpod_fig2fpl",
			[]string{"fpod", "-func", "prog", "-seed", "3", "-evals", "800", fixture("fig2.fpl")}, 0},
		{"fpod_sum3",
			[]string{"fpod", "-func", "prog", "-seed", "3", "-evals", "800", fixture("sum3.fpl")}, 0},
		{"fpod_airy",
			[]string{"fpod", "-builtin", "airy", "-seed", "1", "-evals", "400", "-workers", "2"}, 0},
		{"fpreach_fig2",
			[]string{"fpreach", "-builtin", "fig2", "-path", "0:t,1:t", "-bounds", "-1000:1000", "-seed", "1"}, 0},
		{"fpreach_fig2fpl",
			[]string{"fpreach", "-func", "prog", "-path", "0:t,1:f", "-bounds", "-100:100", "-seed", "1", fixture("fig2.fpl")}, 0},
		{"fpreach_newton",
			[]string{"fpreach", "-func", "newton_sqrt", "-path", "0:f", "-bounds", "0:100", "-seed", "1", fixture("newton.fpl")}, 0},
		{"xsat_sat",
			[]string{"xsat", "-seed", "1", "x < 1 && x + 1 >= 2"}, 0},
		{"xsat_unknown",
			[]string{"xsat", "-seed", "1", "-evals", "200", "-bounds", "-1:1", "x*x < 0"}, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := pipeline.FPAnalyzeMain(tc.args, strings.NewReader(""), &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			got := normalizeDuration(stdout.String())
			if got != normalizeDuration(string(want)) {
				t.Errorf("output diverged from the original per-analysis tool.\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if stderr.Len() != 0 {
				t.Errorf("unexpected stderr: %s", stderr.String())
			}
		})
	}
}

// TestSpecFlagsErrors covers the improved flag diagnostics: unknown
// builtins list the valid names, malformed bounds name the offending
// token and its position.
func TestSpecFlagsErrors(t *testing.T) {
	run := func(analysis string, args ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := cli.RunTool("fpanalyze", analysis, args, &stdout, &stderr)
		return code, stderr.String()
	}

	if code, msg := run("bva", "-builtin", "nope"); code != 1 ||
		!strings.Contains(msg, "unknown builtin") || !strings.Contains(msg, "fig2") {
		t.Errorf("unknown builtin: code %d, stderr %q", code, msg)
	}
	if code, msg := run("bva", "-builtin", "fig2", "-bounds", "1:x"); code != 1 ||
		!strings.Contains(msg, `upper bound "x" is not a number`) {
		t.Errorf("malformed bound: code %d, stderr %q", code, msg)
	}
	if code, msg := run("bva", "-builtin", "fig2", "-bounds", "0:1,2"); code != 1 ||
		!strings.Contains(msg, `bad bound "2" (pair 2 of "0:1,2")`) {
		t.Errorf("bad pair position: code %d, stderr %q", code, msg)
	}
	if code, msg := run("bva", "-builtin", "fig2", "-backend", "nope"); code != 1 ||
		!strings.Contains(msg, "unknown backend") || !strings.Contains(msg, "basinhopping") {
		t.Errorf("unknown backend: code %d, stderr %q", code, msg)
	}
	// Resource limits: workers above its cap is a typed error before any
	// allocation it would size.
	if code, msg := run("coverage", "-builtin", "fig2", "-workers", "200000000"); code != 1 ||
		!strings.Contains(msg, "workers must be at most 256") {
		t.Errorf("workers over the cap: code %d, stderr %q", code, msg)
	}
	// Retired selectors are unknown flags.
	for _, flag := range []string{"-engine", "-stall-ratio", "-lanes"} {
		if code, msg := run("bva", flag, "1", "-builtin", "fig2"); code != 2 ||
			!strings.Contains(msg, "flag provided but not defined: "+flag) {
			t.Errorf("retired %s: code %d, stderr %q", flag, code, msg)
		}
	}
	if code, msg := run("reach", "-builtin", "fig2"); code != 1 ||
		!strings.Contains(msg, "empty path") {
		t.Errorf("empty path: code %d, stderr %q", code, msg)
	}
	if code, msg := run("xsat"); code != 1 ||
		!strings.Contains(msg, "usage: fpanalyze") {
		t.Errorf("missing formula: code %d, stderr %q", code, msg)
	}
	// Knob-driven registration: coverage has no -starts flag.
	if code, msg := run("coverage", "-starts", "4", "-builtin", "fig2"); code != 2 ||
		!strings.Contains(msg, "-starts") {
		t.Errorf("undeclared knob: code %d, stderr %q", code, msg)
	}
	// -h prints usage and exits 0.
	if code, msg := run("bva", "-h"); code != 0 || !strings.Contains(msg, "-builtin") {
		t.Errorf("-h: code %d, stderr %q", code, msg)
	}
}
