// Package instrument implements the weak-distance constructions of the
// paper as pluggable runtime monitors (the "Analysis Designer" layer of
// §5.2). Each monitor chooses a w_init and an update rule and accumulates
// the weak distance w while a program executes under instrumentation
// (either a native rt.Program port or an IR-interpreted DSL program).
//
// Monitors provided:
//
//   - Boundary: multiplicative |a-b| factors at branches (§4.2) — zeros
//     are boundary values.
//   - Path: additive branch-deviation penalties along a target path
//     (§4.3) — zeros trigger the path.
//   - Overflow: Algorithm 3's per-instruction MAX-|a| distance (§4.4) —
//     zeros overflow a not-yet-covered operation.
//   - Coverage: CoverMe-style penalties (§2 Instance 4) — zeros cover a
//     branch side outside the covered set B.
//   - Characteristic: the flat 0/1 function of Fig. 7, the ablation
//     showing that an ungraded weak distance degenerates MO into random
//     testing.
package instrument

import (
	"math"

	"repro/internal/dd"
	"repro/internal/fp"
)

// Boundary accumulates the boundary value analysis weak distance:
// w starts at 1 and is multiplied by |a-b| at every executed branch
// `a op b` (paper Fig. 3). Its zeros are exactly the inputs that make
// some executed comparison an equality — the boundary values.
//
// With ULP set, |a-b| is replaced by the integer ULP distance, which
// cannot vanish without actual floating-point equality (mitigates
// Limitation 2).
//
// With HighPrecision set, the product is accumulated in scaled
// double-double arithmetic (internal/dd), implementing the paper's
// §5.2 suggestion: a plain float64 product of many small factors can
// underflow to a *spurious* zero (a Limitation 2 defect of the
// multiplicative construction itself); the scaled product is zero iff
// some factor is exactly zero.
type Boundary struct {
	// ULP selects the integer ULP metric instead of |a-b|.
	ULP bool
	// HighPrecision accumulates the product without under/overflow.
	HighPrecision bool

	w  float64
	hp *dd.ScaledProduct
}

// Reset implements rt.Monitor.
func (m *Boundary) Reset() {
	m.w = 1
	if m.HighPrecision {
		if m.hp == nil {
			m.hp = dd.NewScaledProduct()
		}
		m.hp.Reset()
	}
}

// MulFactor folds one branch factor into the plain-configuration
// product (|a-b| metric, float64 accumulation):
// w = min(w*d, MaxFloat). It is deliberately tiny so Branch's default
// path inlines to a load, a multiply, a clamp, and a store.
func (m *Boundary) MulFactor(d float64) {
	w := m.w * d
	if w > fp.MaxFloat {
		w = fp.MaxFloat
	}
	m.w = w
}

// Branch implements rt.Monitor.
func (m *Boundary) Branch(site int, op fp.CmpOp, a, b float64) {
	if !m.ULP && !m.HighPrecision {
		// Default configuration, on the per-branch hot path of every
		// boundary analysis: plain |a-b| product with saturation,
		// written so the finite case stays fully inlined. The factors
		// are nonnegative, so w stays nonnegative and the IsInf(w)
		// clamp reduces to a one-sided compare.
		d := fp.Abs(a - b)
		if !(d <= fp.MaxFloat) {
			d = fp.BoundaryDist(a, b) // NaN/Inf operands: cold path
		}
		m.MulFactor(d)
		return
	}
	var d float64
	if m.ULP {
		d = fp.ULPDist(a, b)
	} else {
		d = fp.BoundaryDist(a, b)
	}
	if m.HighPrecision {
		m.hp.MulFactor(d)
		return
	}
	m.w *= d
	if math.IsInf(m.w, 0) {
		m.w = fp.MaxFloat
	}
}

// FPOp implements rt.Monitor (boundary analysis ignores FP operations).
func (m *Boundary) FPOp(int, float64) bool { return false }

// Value implements rt.Monitor.
func (m *Boundary) Value() float64 {
	if m.HighPrecision {
		return m.hp.Value()
	}
	return m.w
}

// BoundaryWitness records which branch sites were hit exactly on their
// boundary (a == b) during one execution. The analysis layer replays
// reported boundary values under a witness to attribute each value to a
// boundary condition (soundness check (i) of §6.2 and the hit counts of
// Table 2). A warm witness replays without allocating: Reset clears
// only the sites the previous execution hit.
type BoundaryWitness struct {
	hit   SiteSet
	order []int
}

// Reset implements rt.Monitor.
func (m *BoundaryWitness) Reset() {
	for _, site := range m.order {
		m.hit.remove(site)
	}
	m.order = m.order[:0]
}

// Branch implements rt.Monitor.
func (m *BoundaryWitness) Branch(site int, op fp.CmpOp, a, b float64) {
	if a == b && !m.hit.Has(site) {
		m.hit.Add(site)
		m.order = append(m.order, site)
	}
}

// FPOp implements rt.Monitor.
func (m *BoundaryWitness) FPOp(int, float64) bool { return false }

// Value implements rt.Monitor: 0 when some boundary condition was hit,
// making the witness itself a (characteristic-style) weak distance.
func (m *BoundaryWitness) Value() float64 {
	if len(m.order) > 0 {
		return 0
	}
	return 1
}

// Sites returns the boundary sites hit, in first-hit order.
func (m *BoundaryWitness) Sites() []int { return m.order }
