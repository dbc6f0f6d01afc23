package instrument

import (
	"repro/internal/fp"
)

// Characteristic is the flat weak distance of the paper's Fig. 7: for the
// boundary value analysis problem it returns 0 when some executed branch
// sits exactly on its boundary (a == b) and 1 otherwise. It satisfies
// Def. 3.1(a-c) — it *is* a weak distance — but carries no gradient, so
// minimizing it degenerates into pure random testing (Limitation 3
// illustration; ablated in the Fig. 7 bench).
type Characteristic struct {
	hit bool
}

// Reset implements rt.Monitor.
func (m *Characteristic) Reset() { m.hit = false }

// Branch implements rt.Monitor.
func (m *Characteristic) Branch(site int, op fp.CmpOp, a, b float64) {
	if a == b {
		m.hit = true
	}
}

// FPOp implements rt.Monitor.
func (m *Characteristic) FPOp(int, float64) bool { return false }

// Value implements rt.Monitor.
func (m *Characteristic) Value() float64 {
	if m.hit {
		return 0
	}
	return 1
}
