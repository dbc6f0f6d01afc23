package paper

import (
	"math"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	res := Table1(1, 24000)
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Basinhopping must solve both problems (the paper's strongest
	// backend).
	bh := res.Rows[0]
	if bh.Backend != "Basinhopping" {
		t.Fatalf("row order: %s", bh.Backend)
	}
	if bh.BoundaryMin != 0 || len(bh.BoundaryZeros) == 0 {
		t.Errorf("Basinhopping BVA: min=%v zeros=%v", bh.BoundaryMin, bh.BoundaryZeros)
	}
	if bh.PathMin != 0 || len(bh.PathZeros) == 0 {
		t.Errorf("Basinhopping path: min=%v zeros=%d", bh.PathMin, len(bh.PathZeros))
	}
	// Basinhopping finds the three landmark boundary values.
	want := map[float64]bool{-3: false, 1: false, 2: false}
	for _, z := range bh.BoundaryZeros {
		if _, ok := want[z]; ok {
			want[z] = true
		}
	}
	for v, found := range want {
		if !found {
			t.Errorf("Basinhopping missed boundary value %v (found %v)", v, bh.BoundaryZeros)
		}
	}
	// Every backend's path zeros lie inside [-3, 1].
	for _, r := range res.Rows {
		for _, z := range r.PathZeros {
			if z < -3 || z > 1 {
				t.Errorf("%s: path zero %v outside [-3,1]", r.Backend, z)
			}
		}
		for _, z := range r.BoundaryZeros {
			if w := boundaryW(z); w != 0 {
				t.Errorf("%s: reported boundary zero %v has W=%v", r.Backend, z, w)
			}
		}
	}
	if !strings.Contains(res.Format(), "Basinhopping") {
		t.Error("Format missing backend name")
	}
}

func boundaryW(x float64) float64 {
	// Recompute the Fig. 2 boundary weak distance directly.
	w := 1.0
	xx := x
	w *= math.Abs(xx - 1.0)
	if xx <= 1.0 {
		xx = xx + 1
	}
	y := xx * xx
	w *= math.Abs(y - 4.0)
	return w
}

func TestFig3Fig4(t *testing.T) {
	f3 := Fig3(2, 3000)
	if len(f3.Curve) == 0 || len(f3.Samples) == 0 {
		t.Fatal("empty figure")
	}
	// The curve touches zero at the landmarks.
	zeroXs := map[float64]bool{}
	for _, c := range f3.Curve {
		if c.W == 0 {
			zeroXs[c.X] = true
		}
	}
	if len(zeroXs) == 0 {
		t.Error("fig3 curve never touches zero on the grid")
	}
	f4 := Fig4(2, 3000)
	// The path weak distance is zero on [-3, 1]: a large flat region of
	// the curve.
	zeros := 0
	for _, c := range f4.Curve {
		if c.W == 0 {
			if c.X < -3.0001 || c.X > 1.0001 {
				t.Errorf("fig4 zero at %v outside [-3,1]", c.X)
			}
			zeros++
		}
	}
	if zeros < 50 {
		t.Errorf("fig4 zero region too small: %d grid points", zeros)
	}
	if f4.ZeroSamples == 0 {
		t.Error("fig4 sampling never hit the solution region")
	}
	if !strings.Contains(f3.Format(), "weak-distance graph") {
		t.Error("format")
	}
}

func TestFig7AblationShape(t *testing.T) {
	res := Fig7(3, 30000)
	if !res.GradedFound {
		t.Error("graded weak distance failed — should find a boundary value easily")
	}
	if res.FlatFound && res.FlatEvals < res.GradedEvals {
		t.Error("flat characteristic function outperformed the graded distance — ablation shape violated")
	}
	if !strings.Contains(res.Format(), "degenerates into random testing") {
		t.Error("format")
	}
}

func TestSinStudyShape(t *testing.T) {
	s := SinBoundaryStudyWorkers(4, 48, 4000, 0)
	// All 8 reachable conditions, none on the unreachable branch.
	reached := 0
	for site := 0; site < 4; site++ {
		for _, neg := range []bool{false, true} {
			if s.Report.Condition(site, neg) != nil {
				reached++
			}
		}
	}
	if reached != 8 {
		t.Errorf("reached %d/8 conditions", reached)
	}
	if s.Report.Condition(4, false) != nil || s.Report.Condition(4, true) != nil {
		t.Error("unreachable condition reported")
	}
	t2 := s.FormatTable2()
	if !strings.Contains(t2, "0x3e500000") || !strings.Contains(t2, "unreached") {
		t.Errorf("table 2 rendering:\n%s", t2)
	}
	if !strings.Contains(s.FormatFig9(), "final:") {
		t.Error("fig 9 rendering")
	}
}

func TestGSLStudyShape(t *testing.T) {
	res := GSLStudyWorkers(5, 6000, 0)
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byFile := map[string]Table3Row{}
	for _, r := range res.Rows {
		byFile[r.File] = r
	}
	// Bessel: 23 ops, >= 21 overflows (the paper found 21; the
	// M_PI/(2x) division is reachable only via subnormal x and our
	// full-lattice sampling can find it, hence >=).
	b := byFile["bessel"]
	if b.Ops != 23 {
		t.Errorf("bessel |Op| = %d", b.Ops)
	}
	if b.Overflows < 21 {
		t.Errorf("bessel |O| = %d, want >= 21", b.Overflows)
	}
	// Hyperg: 8 ops, some overflows, some inconsistencies.
	h := byFile["hyperg"]
	if h.Ops != 8 {
		t.Errorf("hyperg |Op| = %d", h.Ops)
	}
	if h.Overflows == 0 {
		t.Error("hyperg found no overflows")
	}
	// Airy: both confirmed bugs replay.
	a := byFile["airy"]
	if a.Bugs != 2 {
		t.Errorf("airy |B| = %d, want 2", a.Bugs)
	}
	if a.Overflows == 0 {
		t.Error("airy found no overflows")
	}
	// Inconsistencies exist somewhere (bessel returns SUCCESS always,
	// so every overflow that reaches val/err is an inconsistency).
	if b.Inconsistencies == 0 {
		t.Error("bessel overflows must replay as inconsistencies")
	}
	for _, fmtd := range []string{res.FormatTable3(), res.FormatTable4(), res.FormatTable5()} {
		if len(fmtd) == 0 {
			t.Error("empty formatting")
		}
	}
	if !strings.Contains(res.FormatTable4(), "4.0 * nu*nu") {
		t.Error("table 4 rendering")
	}
	if !strings.Contains(res.FormatTable5(), "Confirmed-bug replays") {
		t.Error("table 5 rendering")
	}
}
