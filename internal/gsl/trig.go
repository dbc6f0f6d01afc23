package gsl

import (
	"math"

	"repro/internal/rt"
)

// Operation sites of gsl_sf_cos_e and gsl_sf_cos_err_e (trig.c),
// relative to a caller-provided base. The cheb sites of the embedded
// series evaluation follow at base+cosOpCount.
const (
	cosOpSmallX2   = iota // x2 = x*x (small-argument branch)
	cosOpSmallHalf        // 0.5*x2
	cosOpSmallVal         // 1.0 - 0.5*x2
	cosOpSmallX4          // x2*x2
	cosOpSmallErr         // x2*x2/12.0
	cosOpY                // y = floor(abs_x/(0.25*M_PI))
	cosOpOct              // y - ldexp(floor(ldexp(y,-3)),3)
	cosOpYInc             // y += 1.0 (odd-octant adjustment)
	cosOpZP1m             // y * P1
	cosOpZP1s             // abs_x - y*P1
	cosOpZP2m             // y * P2
	cosOpZP2s             // (…) - y*P2
	cosOpZP3m             // y * P3
	cosOpZP3s             // z = (…) - y*P3
	cosOpT8               // 8.0*fabs(z)
	cosOpTDiv             // (…)/M_PI
	cosOpTSub             // t = (…) - 1.0
	cosOpZZ               // z*z
	cosOpSerMul           // z*z * cs_result.val
	cosOpSerSub           // 1.0 - z*z*cs_result.val
	cosOpHalfZZ           // 0.5*z*z * (…)
	cosOpVal              // val = 1.0 - (…)
	cosOpErrAbsZ          // |z| error term product
	cosOpErrAdd1          // err accumulation
	cosOpErrEps           // GSL_DBL_EPSILON * |val|
	cosOpErrAdd2          // err accumulation
	cosOpCount
)

// gsl_sf_cos_err_e sites, relative to base (after cos + cheb sites).
const (
	cosErrOpMulDx = iota // |sin(x)| * dx
	cosErrOpAdd          // err += …
	cosErrOpEps          // GSL_DBL_EPSILON * |val|
	cosErrOpAdd2         // err += …
	cosErrOpCount
)

var cosOpLabels = [cosOpCount]string{
	cosOpSmallX2:   "gsl_sf_cos_e: x2 = x*x",
	cosOpSmallHalf: "gsl_sf_cos_e: 0.5*x2",
	cosOpSmallVal:  "gsl_sf_cos_e: val = 1.0 - 0.5*x2",
	cosOpSmallX4:   "gsl_sf_cos_e: x2*x2",
	cosOpSmallErr:  "gsl_sf_cos_e: err = fabs(x2*x2/12.0)",
	cosOpY:         "gsl_sf_cos_e: y = floor(abs_x/(0.25*M_PI))",
	cosOpOct:       "gsl_sf_cos_e: octant = y - ldexp(floor(ldexp(y,-3)),3)",
	cosOpYInc:      "gsl_sf_cos_e: y += 1.0",
	cosOpZP1m:      "gsl_sf_cos_e: y * P1",
	cosOpZP1s:      "gsl_sf_cos_e: abs_x - y*P1",
	cosOpZP2m:      "gsl_sf_cos_e: y * P2",
	cosOpZP2s:      "gsl_sf_cos_e: (abs_x - y*P1) - y*P2",
	cosOpZP3m:      "gsl_sf_cos_e: y * P3",
	cosOpZP3s:      "gsl_sf_cos_e: z = ((abs_x - y*P1) - y*P2) - y*P3",
	cosOpT8:        "gsl_sf_cos_e: 8.0*fabs(z)",
	cosOpTDiv:      "gsl_sf_cos_e: 8.0*fabs(z)/M_PI",
	cosOpTSub:      "gsl_sf_cos_e: t = 8.0*fabs(z)/M_PI - 1.0",
	cosOpZZ:        "gsl_sf_cos_e: z*z",
	cosOpSerMul:    "gsl_sf_cos_e: z*z * cos_cs_result.val",
	cosOpSerSub:    "gsl_sf_cos_e: 1.0 - z*z*cos_cs_result.val",
	cosOpHalfZZ:    "gsl_sf_cos_e: 0.5*z*z * (1.0 - z*z*cos_cs_result.val)",
	cosOpVal:       "gsl_sf_cos_e: val = 1.0 - 0.5*z*z*(…)",
	cosOpErrAbsZ:   "gsl_sf_cos_e: fabs(z) * GSL_DBL_EPSILON * fabs(y)",
	cosOpErrAdd1:   "gsl_sf_cos_e: err accumulation",
	cosOpErrEps:    "gsl_sf_cos_e: GSL_DBL_EPSILON * fabs(val)",
	cosOpErrAdd2:   "gsl_sf_cos_e: err + GSL_DBL_EPSILON*fabs(val)",
}

var cosErrOpLabels = [cosErrOpCount]string{
	cosErrOpMulDx: "gsl_sf_cos_err_e: fabs(sin(x)) * dx",
	cosErrOpAdd:   "gsl_sf_cos_err_e: err += fabs(sin(x))*dx",
	cosErrOpEps:   "gsl_sf_cos_err_e: GSL_DBL_EPSILON * fabs(val)",
	cosErrOpAdd2:  "gsl_sf_cos_err_e: err += GSL_DBL_EPSILON*fabs(val)",
}

// Cody–Waite constants of gsl_sf_cos_e (trig.c).
const (
	cosP1 = 7.85398125648498535156e-01
	cosP2 = 3.77489470793079817668e-08
	cosP3 = 2.69515142907905952645e-15
)

// cosCS and sinCS are the Chebyshev series GSL evaluates on the reduced
// argument t = 8|z|/π - 1 ∈ [-1, 1]. The coefficients are synthetic
// stand-ins, not GSL's cos_cs/sin_cs tables: they are derived from the
// Taylor kernels cos z = 1 - ½z²(1 - z²·c) and
// sin z = z(1 + z²·s): accurate to ~1e-7 in-domain and — like the
// originals — wildly divergent for the out-of-domain |t| >> 1 arguments
// produced by the broken huge-argument reduction (Bug 2's mechanism).
var cosCS = chebSeries{
	c: []float64{
		+0.1653918848,
		-8.48478e-04,
		-2.100551e-04,
		+1.17975e-06,
		+1.47468e-07,
	},
	order: 4,
	a:     -1,
	b:     1,
}

var sinCS = chebSeries{
	c: []float64{
		-0.3295193064,
		+2.537180e-03,
		+6.26038e-04,
		-4.71857e-06,
		-5.89821e-07,
	},
	order: 4,
	a:     -1,
	b:     1,
}

// cosImpl ports gsl_sf_cos_e. base is the program-relative offset of the
// cos sites; the embedded cheb sites live at base+cosOpCount.
//
// The reduction is faithful to GSL including its failure mode: for
// |x| large enough that y cannot be resolved by the Cody–Waite triple,
// z explodes, the series argument t leaves [-1,1], and the Chebyshev
// evaluation diverges — the val ±Inf observed in the paper's Bug 2.
func cosImpl(ctx *rt.Ctx, base int, x float64, result *Result) Status {
	absX := math.Abs(x)
	if absX < Root4DblEpsilon {
		x2 := ctx.Op(base+cosOpSmallX2, x*x)
		result.Val = ctx.Op(base+cosOpSmallVal, 1.0-ctx.Op(base+cosOpSmallHalf, 0.5*x2))
		result.Err = math.Abs(ctx.Op(base+cosOpSmallErr, ctx.Op(base+cosOpSmallX4, x2*x2)/12.0))
		return Success
	}

	sgn := 1.0
	y := math.Floor(ctx.Op(base+cosOpY, absX/(0.25*math.Pi)))
	octF := ctx.Op(base+cosOpOct, y-math.Ldexp(math.Floor(math.Ldexp(y, -3)), 3))
	octant := int(octF)
	if octant&1 == 1 {
		octant++
		octant &= 7
		y = ctx.Op(base+cosOpYInc, y+1.0)
	}
	if octant > 3 {
		octant -= 4
		sgn = -sgn
	}
	if octant > 1 {
		sgn = -sgn
	}

	z := ctx.Op(base+cosOpZP3s,
		ctx.Op(base+cosOpZP2s,
			ctx.Op(base+cosOpZP1s, absX-ctx.Op(base+cosOpZP1m, y*cosP1))-
				ctx.Op(base+cosOpZP2m, y*cosP2))-
			ctx.Op(base+cosOpZP3m, y*cosP3))

	t := ctx.Op(base+cosOpTSub,
		ctx.Op(base+cosOpTDiv, ctx.Op(base+cosOpT8, 8.0*math.Abs(z))/math.Pi)-1.0)
	var csRes Result
	zz := ctx.Op(base+cosOpZZ, z*z)
	if octant == 0 {
		// cos kernel.
		chebEvalMode(ctx, base+cosOpCount+cosErrOpCount, &cosCS, t, &csRes)
		result.Val = ctx.Op(base+cosOpVal,
			1.0-ctx.Op(base+cosOpHalfZZ, 0.5*zz*
				ctx.Op(base+cosOpSerSub, 1.0-ctx.Op(base+cosOpSerMul, zz*csRes.Val))))
	} else {
		// octant == 2: sin kernel.
		chebEvalMode(ctx, base+cosOpCount+cosErrOpCount, &sinCS, t, &csRes)
		result.Val = ctx.Op(base+cosOpVal,
			z*ctx.Op(base+cosOpSerSub, 1.0+ctx.Op(base+cosOpSerMul, zz*csRes.Val)))
	}
	result.Val *= sgn
	result.Err = ctx.Op(base+cosOpErrAdd1,
		ctx.Op(base+cosOpErrAbsZ, math.Abs(z)*DblEpsilon*math.Abs(y))+csRes.Err)
	result.Err = ctx.Op(base+cosOpErrAdd2,
		result.Err+ctx.Op(base+cosOpErrEps, DblEpsilon*math.Abs(result.Val)))
	return Success
}

// cosErrImpl ports gsl_sf_cos_err_e(x, dx): cosine of an argument known
// only to within dx, with the error propagated into the estimate.
func cosErrImpl(ctx *rt.Ctx, base int, x, dx float64, result *Result) Status {
	stat := cosImpl(ctx, base, x, result)
	errBase := base + cosOpCount
	result.Err = ctx.Op(errBase+cosErrOpAdd,
		result.Err+ctx.Op(errBase+cosErrOpMulDx, math.Abs(math.Sin(x))*dx))
	result.Err = ctx.Op(errBase+cosErrOpAdd2,
		result.Err+ctx.Op(errBase+cosErrOpEps, DblEpsilon*math.Abs(result.Val)))
	return stat
}

// CosErr evaluates the gsl_sf_cos_err_e port concretely.
func CosErr(x, dx float64) (Result, Status) {
	var res Result
	st := cosErrImpl(rt.NewCtx(rt.NopMonitor{}), 0, x, dx, &res)
	return res, st
}

// cosTotalSites is the number of sites cosErrImpl consumes from base:
// cos sites, then cos_err sites, then the embedded cheb sites.
const cosTotalSites = cosOpCount + cosErrOpCount + chebOpCount
