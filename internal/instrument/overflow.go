package instrument

import (
	"repro/internal/fp"
)

// Overflow accumulates the overflow-detection weak distance of
// Algorithm 3: after every floating-point operation site l not in the
// tracked set L, it overwrites
//
//	w = |a| < MAX ? MAX - |a| : 0
//
// and aborts execution when w hits 0 (the injected `if (w == 0) return;`).
// The weak distance therefore targets the *last executed* not-yet-covered
// operation, which Algorithm 3 step 7 uses as the next target. Once w is
// 0 the monitor ignores the rest of the run, which a native port
// executes to its end.
//
// w_init is 1 (Algorithm 3 step 3): when every operation is in L, all
// injected code is a no-op and W returns 1, signalling that no further
// overflow can be targeted.
type Overflow struct {
	// L is the set of operation sites already handled (overflowed with
	// earlier inputs, or given up on). The analysis driver shares one
	// read-only snapshot across a round's monitors.
	L SiteSet

	w        float64
	lastSite int
}

// NewOverflow returns a monitor with an empty tracked set.
func NewOverflow() *Overflow {
	return &Overflow{}
}

// Reset implements rt.Monitor.
func (m *Overflow) Reset() {
	m.w = 1
	m.lastSite = -1
}

// Branch implements rt.Monitor (overflow detection ignores branches).
func (m *Overflow) Branch(int, fp.CmpOp, float64, float64) {}

// FPOp implements rt.Monitor.
func (m *Overflow) FPOp(site int, v float64) bool {
	if m.w == 0 {
		return true // stopped: w and lastSite stay until Reset
	}
	if m.L.Has(site) {
		return false // behaves like a no-op once tracked (step 2 guard)
	}
	m.w = fp.OverflowDist(v)
	m.lastSite = site
	return m.w == 0
}

// Value implements rt.Monitor.
func (m *Overflow) Value() float64 { return m.w }

// LastSite returns the site whose distance w last took, i.e. the
// operation the previous execution effectively targeted; -1 when every
// executed operation was already tracked. Algorithm 3 step 7 adds this
// site to L after each minimization round.
func (m *Overflow) LastSite() int { return m.lastSite }
