package pipeline_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite the JSON golden files")

// normalizeJSON masks the wall-clock durations, the only bytes of the
// JSON surfaces that may differ between identical runs.
func normalizeJSON(s string) string {
	return string(pipeline.NormalizeDurations([]byte(s)))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", "json", name)
	got = normalizeJSON(got)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != normalizeJSON(string(want)) {
		t.Errorf("%s: output diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFPAnalyzeJSONGolden locks the fpanalyze -json surface — the
// pipeline wire shape of every registered analysis — to byte-exact
// golden files (modulo wall-clock durations).
func TestFPAnalyzeJSONGolden(t *testing.T) {
	fixture := func(name string) string { return filepath.Join("..", "..", "testdata", name) }
	cases := []struct {
		golden string
		args   []string
		stdin  string
		code   int
	}{
		{"fpanalyze_bva_fig2fpl.json",
			[]string{"bva", "-json", "-func", "prog", "-seed", "1", "-starts", "2", "-evals", "300",
				"-bounds", "-100:100", fixture("fig2.fpl")}, "", 0},
		{"fpanalyze_bva_hp_fig2fpl.json",
			[]string{"bva", "-json", "-func", "prog", "-seed", "1", "-starts", "2", "-evals", "300",
				"-hp", "-bounds", "-100:100", fixture("fig2.fpl")}, "", 0},
		{"fpanalyze_coverage_fig2fpl.json",
			[]string{"coverage", "-json", "-func", "prog", "-seed", "2", "-evals", "300",
				"-bounds", "-100:100", fixture("fig2.fpl")}, "", 0},
		{"fpanalyze_overflow_sum3.json",
			[]string{"overflow", "-json", "-func", "prog", "-seed", "3", "-evals", "400",
				fixture("sum3.fpl")}, "", 0},
		{"fpanalyze_nan_fig2fpl.json",
			[]string{"nan", "-json", "-func", "prog", "-seed", "1", "-evals", "400",
				fixture("fig2.fpl")}, "", 0},
		{"fpanalyze_reach_fig2fpl.json",
			[]string{"reach", "-json", "-func", "prog", "-path", "0:t,1:f",
				"-bounds", "-100:100", "-seed", "1", fixture("fig2.fpl")}, "", 0},
		{"fpanalyze_xsat_sat.json",
			[]string{"xsat", "-json", "-seed", "1", "x < 1 && x + 1 >= 2"}, "", 0},
		{"fpanalyze_xsat_unknown.json",
			[]string{"xsat", "-json", "-seed", "1", "-evals", "200", "-bounds", "-1:1", "x*x < 0"}, "", 2},
		{"fpanalyze_batch.ndjson",
			[]string{"batch", "-jobs", "2", "-"},
			`[
			  {"source": "func f(x double) double {\n    if (x < 1.0) { return x + 1.0; }\n    return x * 2.0;\n}", "spec": {"analysis": "coverage", "seed": 1, "evals": 300, "stall": 2, "bounds": [{"lo": -100, "hi": 100}]}},
			  {"source": "func f(x double) double {\n    if (x < 1.0) { return x + 1.0; }\n    return x * 2.0;\n}", "spec": {"analysis": "bva", "seed": 1, "starts": 2, "evals": 300, "highPrecision": true, "bounds": [{"lo": -100, "hi": 100}]}},
			  {"spec": {"analysis": "xsat", "seed": 1, "formula": "x < 1 && x + 1 >= 2"}},
			  {"spec": {"analysis": "nope"}}
			]`, 1},
		{"fpanalyze_list.txt", []string{"list"}, "", 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			var stdin io.Reader = strings.NewReader(tc.stdin)
			code := pipeline.FPAnalyzeMain(tc.args, stdin, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			checkGolden(t, tc.golden, stdout.String())
		})
	}
}

// TestFPServeGolden locks the fpserve HTTP surfaces: the
// /v1/analyses listing, and the results of a /v1 job streamed over its
// event stream, one wire result per line.
func TestFPServeGolden(t *testing.T) {
	_, ts := v1Server(t, 2)

	t.Run("analyses", func(t *testing.T) {
		resp, body := doJSON(t, "GET", ts.URL+"/v1/analyses", "")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		checkGolden(t, "fpserve_analyses.json", string(body))
	})

	t.Run("analyze", func(t *testing.T) {
		req := `{
			"builtin": "fig2",
			"specs": [
				{"analysis": "coverage", "seed": 1, "evals": 300, "stall": 2, "bounds": [{"lo": -100, "hi": 100}]},
				{"analysis": "nan", "seed": 1, "evals": 300, "rounds": 4},
				{"analysis": "reach", "seed": 1, "path": [{"Site": 0, "Taken": true}], "bounds": [{"lo": -100, "hi": 100}]}
			]}`
		results, err := runV1Batch(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		var ndjson strings.Builder
		for _, r := range results {
			ndjson.WriteString(r + "\n")
		}
		checkGolden(t, "fpserve_analyze.ndjson", ndjson.String())
	})
}
