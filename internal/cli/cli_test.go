package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/instrument"
)

func TestBuiltinResolution(t *testing.T) {
	for _, name := range BuiltinNames() {
		p, err := Builtin(name)
		if err != nil {
			t.Errorf("Builtin(%q): %v", name, err)
			continue
		}
		if p.Dim < 1 {
			t.Errorf("builtin %q has dim %d", name, p.Dim)
		}
	}
	if _, err := Builtin("nope"); err == nil || !strings.Contains(err.Error(), "available") {
		t.Errorf("unknown builtin error: %v", err)
	}
}

func TestLoadFPL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.fpl")
	src := `
func helper(a double) double { return a * 2.0; }
func main_prog(x double) { if (x < helper(x)) { x = x + 1.0; } }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Named function.
	p, err := LoadSource(path, "", "main_prog")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim != 1 || p.Name != "main_prog" {
		t.Errorf("program %q dim %d", p.Name, p.Dim)
	}
	// Default function: the first declared.
	p2, err := LoadSource(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != "helper" {
		t.Errorf("default function %q, want first declared", p2.Name)
	}
	// Errors surface with the path.
	bad := filepath.Join(dir, "bad.fpl")
	os.WriteFile(bad, []byte("func f(x double) { y = 1.0; }"), 0o644)
	if _, err := LoadSource(bad, "", ""); err == nil || !strings.Contains(err.Error(), "bad.fpl") {
		t.Errorf("compile error without path context: %v", err)
	}
	if _, err := LoadSource(filepath.Join(dir, "missing.fpl"), "", ""); err == nil {
		t.Error("missing file not reported")
	}
}

func TestResolve(t *testing.T) {
	if _, err := Resolve("fig2", "", "", ""); err != nil {
		t.Errorf("builtin resolve: %v", err)
	}
	if _, err := Resolve("fig2", "x.fpl", "", ""); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := Resolve("", "", "", ""); err == nil {
		t.Error("no source accepted")
	}
}

func TestParseBounds(t *testing.T) {
	bs, err := ParseBounds("-1:2", 1)
	if err != nil || len(bs) != 1 || bs[0].Lo != -1 || bs[0].Hi != 2 {
		t.Errorf("bs=%v err=%v", bs, err)
	}
	// Broadcast.
	bs, err = ParseBounds("-1:2", 3)
	if err != nil || len(bs) != 3 || bs[2].Hi != 2 {
		t.Errorf("broadcast bs=%v err=%v", bs, err)
	}
	// Per-dimension.
	bs, err = ParseBounds("-1:2,0:5", 2)
	if err != nil || bs[1].Lo != 0 || bs[1].Hi != 5 {
		t.Errorf("per-dim bs=%v err=%v", bs, err)
	}
	// Empty means nil.
	if bs, err := ParseBounds("", 2); err != nil || bs != nil {
		t.Errorf("empty bounds: %v %v", bs, err)
	}
	// Errors.
	for _, spec := range []string{"1", "a:b", "2:1", "-1:2,0:5,3:4"} {
		if _, err := ParseBounds(spec, 2); err == nil {
			t.Errorf("ParseBounds(%q): expected error", spec)
		}
	}
}

func TestParsePath(t *testing.T) {
	ds, err := ParsePath("0:t,1:f,2:true,3:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []instrument.Decision{
		{Site: 0, Taken: true}, {Site: 1, Taken: false},
		{Site: 2, Taken: true}, {Site: 3, Taken: false},
	}
	if len(ds) != len(want) {
		t.Fatalf("ds=%v", ds)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Errorf("decision %d: %v, want %v", i, ds[i], want[i])
		}
	}
	for _, spec := range []string{"", "0", "x:t", "0:maybe"} {
		if _, err := ParsePath(spec); err == nil {
			t.Errorf("ParsePath(%q): expected error", spec)
		}
	}
}
