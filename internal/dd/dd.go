// Package dd implements double-double arithmetic: an unevaluated sum of
// two float64 values carrying ~106 bits of significand, built from the
// classical error-free transformations (Dekker 1971; Knuth TAOCP §4.2.2).
//
// The weak-distance framework uses it as the §5.2 mitigation the paper
// suggests ("one can implement W with higher-precision arithmetic"): the
// multiplicative boundary weak distance w = Π|aᵢ-bᵢ| can underflow to a
// spurious zero in binary64 when many small factors accumulate — a
// Limitation 2 defect. Accumulating the product in double-double with a
// separate scale exponent removes those spurious zeros without losing
// the exact-zero property (a product is zero iff some factor is zero).
package dd

import "math"

// DD is a double-double value: the sum hi + lo with |lo| <= ulp(hi)/2.
type DD struct {
	Hi, Lo float64
}

// FromFloat lifts a float64.
func FromFloat(x float64) DD { return DD{Hi: x} }

// Float rounds the double-double back to the nearest float64.
func (a DD) Float() float64 { return a.Hi + a.Lo }

// IsZero reports whether the value is exactly zero.
func (a DD) IsZero() bool { return a.Hi == 0 && a.Lo == 0 }

// twoSum is the error-free transformation of a + b (Knuth): s + e = a + b
// exactly, with s = fl(a + b).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bVirt := s - a
	aVirt := s - bVirt
	e = (a - aVirt) + (b - bVirt)
	return
}

// twoProd is the error-free transformation of a * b via FMA:
// p + e = a*b exactly, with p = fl(a*b).
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return
}

// Add returns a + b in double-double.
func Add(a, b DD) DD {
	s, e := twoSum(a.Hi, b.Hi)
	e += a.Lo + b.Lo
	hi, lo := quickTwoSum(s, e)
	return DD{Hi: hi, Lo: lo}
}

// Sub returns a - b.
func Sub(a, b DD) DD { return Add(a, Neg(b)) }

// Neg returns -a.
func Neg(a DD) DD { return DD{Hi: -a.Hi, Lo: -a.Lo} }

// Mul returns a * b in double-double.
func Mul(a, b DD) DD {
	p, e := twoProd(a.Hi, b.Hi)
	e += a.Hi*b.Lo + a.Lo*b.Hi
	hi, lo := quickTwoSum(p, e)
	return DD{Hi: hi, Lo: lo}
}

// MulFloat returns a * x.
func MulFloat(a DD, x float64) DD { return Mul(a, FromFloat(x)) }

// quickTwoSum renormalizes assuming |a| >= |b| (or a == 0).
func quickTwoSum(a, b float64) (hi, lo float64) {
	hi = a + b
	lo = b - (hi - a)
	if math.IsNaN(lo) || math.IsInf(hi, 0) {
		lo = 0
	}
	return
}

// Cmp compares a and b: -1, 0, +1.
func Cmp(a, b DD) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// ScaledProduct accumulates a product of nonnegative float64 factors
// without underflow or overflow: the value is mant × 2^exp2 with the
// mantissa kept in [1, 2) (double-double for the low bits). The product
// is exactly zero iff some factor is exactly zero — the invariant the
// boundary weak distance needs (Def. 3.1(b-c)).
type ScaledProduct struct {
	mant DD
	exp2 int64
	zero bool
	nan  bool
}

// NewScaledProduct starts at 1.
func NewScaledProduct() *ScaledProduct {
	return &ScaledProduct{mant: FromFloat(1)}
}

// Reset restores the product to 1.
func (p *ScaledProduct) Reset() {
	p.mant = FromFloat(1)
	p.exp2 = 0
	p.zero = false
	p.nan = false
}

// MulFactor multiplies the product by a nonnegative factor.
func (p *ScaledProduct) MulFactor(f float64) {
	switch {
	case p.nan || p.zero:
		return
	case math.IsNaN(f):
		p.nan = true
		return
	case f == 0:
		p.zero = true
		return
	case math.IsInf(f, 1):
		// Saturate the exponent; the product stays positive.
		p.exp2 += 1 << 40
		return
	}
	frac, exp := math.Frexp(f) // f = frac * 2^exp, frac in [0.5, 1)
	p.exp2 += int64(exp)
	p.mant = MulFloat(p.mant, frac)
	// Renormalize the mantissa into [0.5, 2) range of magnitude.
	mfrac, mexp := math.Frexp(p.mant.Hi)
	if mexp != 0 {
		p.exp2 += int64(mexp)
		p.mant = DD{Hi: mfrac, Lo: math.Ldexp(p.mant.Lo, -mexp)}
	}
}

// IsZero reports whether the accumulated product is exactly zero.
func (p *ScaledProduct) IsZero() bool { return p.zero }

// Value rounds the product to float64, saturating to the finite range
// so it can serve as an objective value (never a spurious 0 for a
// nonzero product, never Inf).
func (p *ScaledProduct) Value() float64 {
	if p.nan {
		return math.MaxFloat64
	}
	if p.zero {
		return 0
	}
	v := math.Ldexp(p.mant.Float(), clampExp(p.exp2))
	if v == 0 {
		// The true product is positive but below the subnormal range:
		// report the smallest positive float so zero stays reserved for
		// genuine boundary hits.
		return math.SmallestNonzeroFloat64
	}
	if math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return math.Abs(v)
}

// Log2 returns the base-2 logarithm of the product (for graded
// comparison across the full dynamic range).
func (p *ScaledProduct) Log2() float64 {
	if p.zero {
		return math.Inf(-1)
	}
	if p.nan {
		return math.Inf(1)
	}
	return float64(p.exp2) + math.Log2(math.Abs(p.mant.Float()))
}

func clampExp(e int64) int {
	if e > 2000 {
		return 2000
	}
	if e < -2000 {
		return -2000
	}
	return int(e)
}
