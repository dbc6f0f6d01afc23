package instrument

import (
	"math"

	"repro/internal/fp"
)

// NonFinite accumulates the weak distance of the NaN/domain-error
// finder: it targets executions in which some floating-point operation
// outside the tracked set L produces a non-finite value (NaN or ±Inf —
// the IEEE-754 domain-error signatures the §6.3.2 inconsistency study
// traces back to individual instructions).
//
// It reuses the Algorithm 3 overflow machinery: after every untracked
// operation site l the monitor overwrites
//
//	w = finite(a) ? 1 + (MAX - |a|) : 0
//
// and aborts execution when w hits 0, ignoring the rest of the run
// until Reset. The distance differs from the overflow monitor's in one
// deliberate way: a *finite* result of magnitude MAX (saturation, which
// Algorithm 3 counts as overflow) is not in the target set — w stays at
// 1 there, so only genuine NaN/Inf results terminate the search.
// Minimization still rides the same gradient (grow the magnitude until
// the cliff), which is how NaNs from Inf−Inf, Inf/Inf, and 0·Inf are
// reached in practice.
type NonFinite struct {
	// L is the set of operation sites already handled. The analysis
	// driver shares one read-only snapshot across a round's monitors.
	L SiteSet

	w        float64
	lastSite int
}

// NewNonFinite returns a monitor with an empty tracked set.
func NewNonFinite() *NonFinite {
	return &NonFinite{}
}

// Reset implements rt.Monitor.
func (m *NonFinite) Reset() {
	m.w = 1
	m.lastSite = -1
}

// Branch implements rt.Monitor (domain-error detection ignores
// branches).
func (m *NonFinite) Branch(int, fp.CmpOp, float64, float64) {}

// FPOp implements rt.Monitor.
func (m *NonFinite) FPOp(site int, v float64) bool {
	if m.w == 0 {
		return true // stopped: w and lastSite stay until Reset
	}
	if m.L.Has(site) {
		return false // behaves like a no-op once tracked
	}
	m.lastSite = site
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.w = 0
		return true
	}
	m.w = 1 + (fp.MaxFloat - fp.Abs(v))
	return false
}

// Value implements rt.Monitor.
func (m *NonFinite) Value() float64 { return m.w }

// LastSite returns the operation site the previous execution
// effectively targeted (the last executed untracked site); -1 when
// every executed operation was already tracked.
func (m *NonFinite) LastSite() int { return m.lastSite }
