package gofront_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fplgen"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/ir"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ir")

// shapesSrc covers the Go lowering shapes the fixture corpus lacks:
// continue, a condition-less for left by break, an if with an init
// statement, and inc/dec.
const shapesSrc = `package shapes

import "math"

func shapes(x, y float64) float64 {
	s := 0.0
	for i := 0.0; i < x; i++ {
		if i == 2.0 {
			continue
		}
		s += i
	}
	for {
		if s > y || !(x < 0.0) {
			break
		}
		s--
	}
	if d := math.Hypot(x, y); d > 1.0 && s != d {
		s = s / d
	}
	var t float64
	t, s = s, t
	return s + t
}
`

// renderIR prints a module the way "fpc -dump-ir -sites" does: the IR,
// then the op and branch site tables.
func renderIR(mod *ir.Module) string {
	var sb strings.Builder
	sb.WriteString(mod.String())
	fmt.Fprintf(&sb, "floating-point operation sites (%d):\n", len(mod.OpSites))
	for _, op := range mod.OpSites {
		fmt.Fprintf(&sb, "  op#%-4d %s\n", op.ID, op.Label)
	}
	fmt.Fprintf(&sb, "branch sites (%d):\n", len(mod.BranchSites))
	for _, b := range mod.BranchSites {
		fmt.Fprintf(&sb, "  br#%-4d %s\n", b.ID, b.Label)
	}
	return sb.String()
}

func compileIR(t *testing.T, lg gofront.Lang, name, src string) string {
	t.Helper()
	mod, err := gofront.CompileSource(lg, name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return renderIR(mod)
}

// TestIRGolden pins the whole modules both frontends emit — registers,
// blocks, site numbering and labels — for every FPL fixture, the lifted
// GSL corpus, a Go shapes program, and (as one digest) 200 generated
// FPL modules.
func TestIRGolden(t *testing.T) {
	got := map[string]string{}
	for _, pattern := range []string{"*.fpl", filepath.Join("fuzz", "*.fpl")} {
		files, err := filepath.Glob(filepath.Join("..", "..", "testdata", pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fixtures match %s: %v", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(file)
			if filepath.Base(filepath.Dir(file)) == "fuzz" {
				name = "fuzz_" + name
			}
			got[name] = compileIR(t, gofront.LangFPL, name, string(src))
		}
	}
	got["lift.go"] = compileIR(t, gofront.LangGo, "lift.go", lift.CombinedSource())
	got["shapes.go"] = compileIR(t, gofront.LangGo, "shapes.go", shapesSrc)

	const seed, draws = 20190622, 200
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	for i := 0; i < draws; i++ {
		src := fplgen.Module(rng)
		h.Write([]byte(compileIR(t, gofront.LangFPL, "", src)))
	}
	got["fplgen"] = fmt.Sprintf("fplgen.Module seed=%d draws=%d sha256=%x\n", seed, draws, h.Sum(nil))

	dir := filepath.Join("..", "..", "testdata", "golden", "ir")
	for name, text := range got {
		path := filepath.Join(dir, name+".txt")
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if text != string(want) {
			gl, wl := strings.Split(text, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got %q\nwant %q", name, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
		}
	}
}
