// Package fp provides IEEE-754 binary64 utilities used throughout the
// weak-distance minimization framework: integer ULP distances, branch
// distances for the six comparison operators, overflow distances, and
// helpers for walking the float lattice.
//
// The package implements the metric machinery of Section 3 of Fu & Su,
// "Effective Floating-Point Analysis via Weak-Distance Minimization"
// (PLDI 2019), including the ULP-based mitigation of Limitation 2
// (floating-point inaccuracy when weak distances are reasoned about in
// real arithmetic).
package fp

import (
	"math"
)

// MaxFloat is the largest finite binary64 value, the MAX of Algorithm 3.
const MaxFloat = math.MaxFloat64

// Abs returns the absolute value of x without branching on the sign bit.
// Unlike math.Abs it is inlined here so the IR interpreter and the native
// runtime share one definition.
func Abs(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) &^ (1 << 63))
}

// IsFinite reports whether x is neither NaN nor an infinity.
func IsFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// ordKey maps a float64 onto a monotone int64 scale: the ordering of the
// keys matches the ordering of the floats, with -0 and +0 mapping to the
// same key distance of 1 apart (they are adjacent on the lattice).
func ordKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		// Negative floats: flip into a descending range below zero.
		b = math.MinInt64 - b
	}
	return b
}

// ULPDiff returns the number of representable binary64 values strictly
// between a and b, plus one if a != b; that is, the integer ULP distance
// |ordKey(a) - ordKey(b)| seen as an unsigned count. It is a true metric
// on the finite floats (Section 7 of the paper; Schkufza et al. 2014):
// nonnegative, zero iff equal, symmetric, and satisfying the triangle
// inequality on the ordKey integer line.
//
// NaN arguments yield the maximum distance so that optimization treats
// NaN-producing inputs as maximally far from any target.
func ULPDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ka, kb := ordKey(a), ordKey(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	return uint64(kb - ka)
}

// ULPDist is ULPDiff converted to float64 for use as a weak-distance
// component. Conversion saturates (values above 2^53 lose precision but
// remain monotone enough to guide search).
func ULPDist(a, b float64) float64 {
	return float64(ULPDiff(a, b))
}

// unordKey inverts ordKey for keys corresponding to representable values.
func unordKey(k int64) float64 {
	if k < 0 {
		k = math.MinInt64 - k
	}
	return math.Float64frombits(uint64(k))
}

// AddULPs returns the float64 that is n steps from x on the float
// lattice (positive n moves toward +Inf). The result is clamped to the
// finite range; stepping from NaN returns NaN.
func AddULPs(x float64, n int64) float64 {
	if math.IsNaN(x) {
		return x
	}
	k := ordKey(x) + n
	lo, hi := ordKey(-MaxFloat), ordKey(MaxFloat)
	if k < lo {
		k = lo
	}
	if k > hi {
		k = hi
	}
	return unordKey(k)
}

// NextUp returns the smallest float64 strictly greater than x.
func NextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// NextDown returns the largest float64 strictly less than x.
func NextDown(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }

// CmpOp identifies one of the six floating-point comparison operators.
type CmpOp uint8

// Comparison operators in source order.
const (
	LT CmpOp = iota // <
	LE              // <=
	GT              // >
	GE              // >=
	EQ              // ==
	NE              // !=
)

// String returns the source-level spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return "?"
}

// Negate returns the operator whose truth value is the logical negation:
// !(a < b) == (a >= b), and so on. (This matches IEEE semantics only for
// non-NaN operands; the framework treats NaN via distance saturation.)
func (op CmpOp) Negate() CmpOp {
	switch op {
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	case EQ:
		return NE
	case NE:
		return EQ
	}
	return op
}

// Eval applies the comparison to the operands.
func (op CmpOp) Eval(a, b float64) bool {
	switch op {
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	case EQ:
		return a == b
	case NE:
		return a != b
	}
	return false
}

// BranchDist returns the branch distance θ(op, a, b): a nonnegative value
// that is zero if and only if `a op b` holds, and otherwise grows with how
// far the operands are from satisfying the comparison. This is the
// additive penalty injected by the path-reachability weak distance
// (paper §4.3: `w = w + (a <= b ? 0 : a - b)` generalized to all six
// operators).
//
// For the strict operators and equality the classical Korel-style
// distances are used. NaN operands yield +Inf so that optimization is
// pushed away from NaN-producing regions.
func BranchDist(op CmpOp, a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	d := branchDistRaw(op, a, b)
	if math.IsNaN(d) {
		// Inf - Inf in a failing comparison (e.g. +Inf < +Inf): the
		// operands are maximally far from satisfying it.
		return math.Inf(1)
	}
	return d
}

func branchDistRaw(op CmpOp, a, b float64) float64 {
	switch op {
	case LT:
		if a < b {
			return 0
		}
		return a - b + ulpStep(a, b)
	case LE:
		if a <= b {
			return 0
		}
		return a - b
	case GT:
		if a > b {
			return 0
		}
		return b - a + ulpStep(a, b)
	case GE:
		if a >= b {
			return 0
		}
		return b - a
	case EQ:
		if a == b {
			return 0
		}
		return Abs(a - b)
	case NE:
		if a != b {
			return 0
		}
		// One ULP of perturbation makes them unequal.
		return ulpStep(a, b)
	}
	return math.Inf(1)
}

// ulpStep is the strictness penalty: the distance contribution that makes
// θ strictly positive when a == b but a strict inequality is required.
// One ULP at the operands' magnitude keeps the distance graded near the
// boundary instead of a fixed constant.
func ulpStep(a, b float64) float64 {
	m := math.Max(Abs(a), Abs(b))
	if math.IsInf(m, 0) {
		return math.SmallestNonzeroFloat64
	}
	step := NextUp(m) - m
	if step == 0 || math.IsInf(step, 0) || math.IsNaN(step) {
		return math.SmallestNonzeroFloat64
	}
	return step
}

// BranchDistULP is BranchDist measured on the integer ULP scale instead of
// the real line. It is zero iff the comparison holds, and otherwise counts
// the ULPs separating the operands (plus one for strict operators at
// equality). Using the ULP scale mitigates Limitation 2: real-valued
// distances can vanish without the comparison holding (e.g. x*x underflow),
// whereas ULP distances vanish only at actual floating-point equality.
func BranchDistULP(op CmpOp, a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	if op.Eval(a, b) {
		return 0
	}
	d := ULPDist(a, b)
	if d == 0 {
		// Equal operands failing a strict comparison: one ULP away.
		return 1
	}
	return d
}

// BoundaryDist returns |a - b|, the multiplicative factor of the boundary
// value analysis weak distance (paper §4.2: `w = w * abs(x - 1.0)`), with
// NaN saturating to +Inf.
func BoundaryDist(a, b float64) float64 {
	// Fast path: a finite difference means both operands are finite
	// non-NaN, which is the overwhelming case on the per-branch hot
	// path. Keeping this function tiny lets it inline into every
	// monitor's Branch method.
	d := Abs(a - b)
	if d <= MaxFloat {
		return d
	}
	return boundaryDistSlow(a, b)
}

// boundaryDistSlow resolves the NaN, infinite-operand, and overflowing
// |a-b| cases, preserving the exact values of the original definition.
func boundaryDistSlow(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	// Finite operands whose difference overflowed.
	return MaxFloat
}

// OverflowDist implements the per-instruction distance of Algorithm 3
// step 2: `|a| < MAX ? MAX - |a| : 0`. Zero means the operation has
// overflowed (result magnitude at or beyond MAX, or non-finite).
func OverflowDist(a float64) float64 {
	if math.IsNaN(a) {
		return 0 // NaN results arise from overflowed intermediates; treat as triggered.
	}
	abs := Abs(a)
	if abs < MaxFloat {
		return MaxFloat - abs
	}
	return 0
}

// Overflowed reports whether a result value counts as an overflow for
// Algorithm 3: non-finite or at the MAX boundary.
func Overflowed(a float64) bool { return OverflowDist(a) == 0 }
