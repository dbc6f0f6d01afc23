// Package libm ports the GNU C Library 2.19 implementation of sin for
// x86-64 (sysdeps/ieee754/dbl-64/s_sin.c) as an instrumentable
// rt.Program — the subject of the paper's §6.2 boundary value analysis
// case study (Fig. 8, Fig. 9, Table 2).
//
// What is bit-exact: the branch structure. Glibc dispatches on
// k = high32(x) & 0x7fffffff against the constants
//
//	0x3e500000  (|x| < 1.490116e-08, sin x ≈ x)
//	0x3feb6000  (|x| < 8.554688e-01, Taylor polynomial)
//	0x400368fd  (|x| < 2.426265,     computed via cos(|x| - π/2))
//	0x419921fb  (|x| < 1.054414e+08, Cody–Waite reduction)
//	0x7ff00000  (|x| < 2^1024,       large-argument reduction)
//
// and we keep those comparisons exactly, because the analysis target is
// the set of boundary conditions k == c (two per branch, ±). What is
// substituted: the branch bodies. Glibc's table-driven correctly-rounded
// kernels become Taylor-derived polynomials with Cody–Waite reduction,
// accurate to a few ulp; from |x| = 1e6 the large branch reduces by
// math.Remainder instead, which loses up to |x|·ulp(2π) absolute. The
// huge branch calls math.Sin, whose Payne–Hanek reduction plays the
// role of glibc's multi-precision __branred. None of this changes which
// branch executes.
package libm

import (
	"math"

	"repro/internal/fp"
	"repro/internal/rt"
)

// Branch sites of the sin port, in source order (Fig. 8 lines 5-9).
const (
	SinBranchTiny   = 0 // k < 0x3e500000
	SinBranchSmall  = 1 // k < 0x3feb6000
	SinBranchMedium = 2 // k < 0x400368fd
	SinBranchLarge  = 3 // k < 0x419921fb
	SinBranchHuge   = 4 // k < 0x7ff00000
)

// SinThresholds lists the k-comparison constants per branch site.
var SinThresholds = [5]uint32{
	0x3e500000, 0x3feb6000, 0x400368fd, 0x419921fb, 0x7ff00000,
}

// SinBoundaryRefs gives, per branch site, the smallest positive |x|
// whose dispatch key k equals the branch threshold — the boundary values
// of Table 2's "ref" row, computed exactly from the bit patterns. The
// last entry is +Inf: the boundary 2^1024 of the final branch exceeds
// the largest double and is unreachable (Table 2's discussion).
var SinBoundaryRefs = [5]float64{
	math.Float64frombits(uint64(0x3e500000) << 32), // 1.4901161e-08 (2^-26)
	math.Float64frombits(uint64(0x3feb6000) << 32), // 8.5546875e-01
	math.Float64frombits(uint64(0x400368fd) << 32), // 2.4262657e+00
	math.Float64frombits(uint64(0x419921fb) << 32), // 1.0541414e+08
	math.Inf(1),
}

// highWord returns the upper 32 bits of x's IEEE-754 representation.
func highWord(x float64) uint32 {
	return uint32(math.Float64bits(x) >> 32)
}

// KOf returns glibc's k = high32(x) & 0x7fffffff dispatch key.
func KOf(x float64) uint32 { return highWord(x) & 0x7fffffff }

// SinProgram returns the instrumented sin port. Input dimension 1.
func SinProgram() *rt.Program {
	branches := make([]rt.BranchInfo, 5)
	labels := [5]string{
		"k < 0x3e500000 (|x| < 1.490120e-08)",
		"k < 0x3feb6000 (|x| < 8.554690e-01)",
		"k < 0x400368fd (|x| < 2.426260)",
		"k < 0x419921fb (|x| < 1.054140e+08)",
		"k < 0x7ff00000 (|x| < 2^1024)",
	}
	for i := range branches {
		branches[i] = rt.BranchInfo{ID: i, Label: labels[i], Op: fp.LT}
	}
	return &rt.Program{
		Name:     "glibc_sin",
		Dim:      1,
		Branches: branches,
		Run: func(ctx *rt.Ctx, in []float64) {
			sinImpl(ctx, in[0])
		},
	}
}

// Sin computes the port's sine uninstrumented.
func Sin(x float64) float64 {
	return sinImpl(rt.NewCtx(rt.NopMonitor{}), x)
}

// sinImpl is the ported control structure of glibc 2.19 __sin. The five
// dispatch comparisons are observed as branch sites 0-4 with the integer
// key and threshold lifted to float64 (exact: both fit in 32 bits), so
// the boundary weak distance w *= |k - c| is precisely the paper's §6.2
// instrumentation.
func sinImpl(ctx *rt.Ctx, x float64) float64 {
	k := float64(KOf(x))
	switch {
	case ctx.Cmp(SinBranchTiny, fp.LT, k, float64(SinThresholds[0])):
		// |x| < 1.49e-8: sin x rounds to x.
		return x
	case ctx.Cmp(SinBranchSmall, fp.LT, k, float64(SinThresholds[1])):
		// |x| < 0.8554690: direct sin polynomial.
		return sinPoly(x)
	case ctx.Cmp(SinBranchMedium, fp.LT, k, float64(SinThresholds[2])):
		// |x| < 2.426265: sin(|x|) = cos(|x| - π/2), with the sign of x.
		y := cosPoly(math.Abs(x) - piOver2Hi - piOver2Lo)
		return math.Copysign(y, x)
	case ctx.Cmp(SinBranchLarge, fp.LT, k, float64(SinThresholds[3])):
		// |x| < 1.054e8: Cody–Waite reduction by π/2 for moderate
		// multiples, IEEE remainder beyond (the 33-bit π/2 split is only
		// exact while n fits in ~20 bits).
		if fp.Abs(x) < 1.0e6 {
			return reducedSin(x)
		}
		return reducedSin(math.Remainder(x, 2*math.Pi))
	case ctx.Cmp(SinBranchHuge, fp.LT, k, float64(SinThresholds[4])):
		// |x| < 2^1024: large-argument reduction. Glibc reduces in
		// multi-precision (__branred); math.Sin reduces |x| ≥ 2^29 by
		// Payne–Hanek, so the value is accurate for every finite x.
		return math.Sin(x)
	default:
		// Inf or NaN: x/x yields NaN, as in glibc.
		return x / x
	}
}

// π/2 split for Cody–Waite reduction.
const (
	piOver2Hi  = 1.5707963267341256e+00
	piOver2Lo  = 6.0771005065061922e-11
	invPiOver2 = 6.3661977236758138e-01 // 2/π
)

// reducedSin reduces |x| by multiples of π/2 and dispatches to the sin
// or cos kernel per quadrant.
func reducedSin(x float64) float64 {
	n := math.Round(x * invPiOver2)
	y := (x - n*piOver2Hi) - n*piOver2Lo
	// sin(y + q·π/2) by quadrant q = n mod 4.
	switch q := ((int64(n) % 4) + 4) % 4; q {
	case 0:
		return sinPoly(y)
	case 1:
		return cosPoly(y)
	case 2:
		return -sinPoly(y)
	default: // 3
		return -cosPoly(y)
	}
}

// Taylor-derived minimax-style coefficients (the role of glibc's
// s1..s5 / POLYNOMIAL kernels).
var sinCoeffs = [...]float64{
	-1.66666666666666666667e-01,
	+8.33333333333333333333e-03,
	-1.98412698412698412698e-04,
	+2.75573192239858906526e-06,
	-2.50521083854417187751e-08,
	+1.60590438368216145994e-10,
}

var cosCoeffs = [...]float64{
	-5.00000000000000000000e-01,
	+4.16666666666666666667e-02,
	-1.38888888888888888889e-03,
	+2.48015873015873015873e-05,
	-2.75573192239858906526e-07,
	+2.08767569878680989792e-09,
}

// sinPoly evaluates sin on the reduced range |x| ≲ π/4 (accurate to a
// few ULP there; used up to ~0.86 by the small branch, matching glibc's
// polynomial range).
func sinPoly(x float64) float64 {
	z := x * x
	s := 0.0
	for i := len(sinCoeffs) - 1; i >= 0; i-- {
		s = s*z + sinCoeffs[i]
	}
	return x + x*z*s
}

// cosPoly evaluates cos on the reduced range.
func cosPoly(x float64) float64 {
	z := x * x
	s := 0.0
	for i := len(cosCoeffs) - 1; i >= 0; i-- {
		s = s*z + cosCoeffs[i]
	}
	return 1 + z*s
}
