package paper

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/paper")

// table3SecondsRE matches a Table 3 row up to its T (sec) column, the
// one wall-clock field of the regenerated output.
var table3SecondsRE = regexp.MustCompile(`(?m)^([a-z]+ +gsl_sf_\w+ +\d+ +\d+ +\d+ +\d+) +\d+\.\d\d$`)

// TestAllGolden locks `paperrepro -all -seed 1` to its recorded bytes,
// Table 3's T (sec) column masked, at every worker count.
func TestAllGolden(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "golden", "paper", "all_seed1.txt")
	for _, workers := range []int{0, 1, 3} {
		var sb strings.Builder
		Render(&sb, AllTables, AllFigs, 1, 0, workers)
		got := table3SecondsRE.ReplaceAllString(sb.String(), "$1     X.XX")
		if *update && workers == 0 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("workers=%d: line %d differs:\n got %q\nwant %q", workers, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("workers=%d: got %d lines, want %d", workers, len(gl), len(wl))
		}
	}
}
