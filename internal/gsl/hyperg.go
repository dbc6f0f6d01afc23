package gsl

import (
	"math"

	"repro/internal/rt"
)

// The 8 elementary floating-point operation sites of
// gsl_sf_hyperg_2F0_e's x < 0 branch (hyperg_2F0.c) — the |Op| = 8 of
// the paper's Table 3.
const (
	HypergOpNegInv1 = iota // -1.0/x (argument of pow)
	HypergOpAddA           // 1.0 + a
	HypergOpSubB           // (1.0+a) - b
	HypergOpNegInv2        // -1.0/x (argument of hyperg_U)
	HypergOpValMul         // result->val = pre * U.val
	HypergOpErrEps         // GSL_DBL_EPSILON * fabs(result->val)
	HypergOpErrPre         // pre * U.err
	HypergOpErrAdd         // err = … + …
	HypergOpCount
)

var hypergOpLabels = [HypergOpCount]string{
	HypergOpNegInv1: "double pre = pow(-1.0/x, a) (the division)",
	HypergOpAddA:    "1.0 + a (second argument of U)",
	HypergOpSubB:    "1.0 + a - b (second argument of U)",
	HypergOpNegInv2: "-1.0/x (third argument of U)",
	HypergOpValMul:  "result->val = pre * U.val",
	HypergOpErrEps:  "GSL_DBL_EPSILON * fabs(result->val)",
	HypergOpErrPre:  "pre * U.err",
	HypergOpErrAdd:  "result->err = GSL_DBL_EPSILON*fabs(val) + pre*U.err",
}

// HypergOpLabel returns the source label for an operation site.
func HypergOpLabel(site int) string {
	if site >= 0 && site < HypergOpCount {
		return hypergOpLabels[site]
	}
	return "?"
}

// Hyperg2F0Program returns the instrumented port of gsl_sf_hyperg_2F0_e.
// Inputs: (a, b, x).
func Hyperg2F0Program() *rt.Program {
	ops := make([]rt.OpInfo, HypergOpCount)
	for i := range ops {
		ops[i] = rt.OpInfo{ID: i, Label: hypergOpLabels[i]}
	}
	return &rt.Program{
		Name: "gsl_sf_hyperg_2F0_e",
		Dim:  3,
		Ops:  ops,
		Run: func(ctx *rt.Ctx, in []float64) {
			var res Result
			hyperg2F0Impl(ctx, in[0], in[1], in[2], &res)
		},
	}
}

// Hyperg2F0 evaluates the port concretely, mirroring
// gsl_sf_hyperg_2F0_e(a, b, x, &result).
func Hyperg2F0(a, b, x float64) (Result, Status) {
	var res Result
	st := hyperg2F0Impl(rt.NewCtx(rt.NopMonitor{}), a, b, x, &res)
	return res, st
}

// hyperg2F0Impl ports gsl_sf_hyperg_2F0_e: for x < 0 it uses the
// "definition" 2F0(a,b;x) = (-1/x)^a U(a, 1+a-b, -1/x). Like GSL, the
// status it returns is the U evaluation's status — the overflow of
// pre * U.val is not detected, which is the Table 5 inconsistency.
func hyperg2F0Impl(ctx *rt.Ctx, a, b, x float64, result *Result) Status {
	switch {
	case x < 0.0:
		pre := math.Pow(ctx.Op(HypergOpNegInv1, -1.0/x), a)
		bU := ctx.Op(HypergOpSubB, ctx.Op(HypergOpAddA, 1.0+a)-b)
		var u Result
		statU := hypergU(a, bU, ctx.Op(HypergOpNegInv2, -1.0/x), &u)
		result.Val = ctx.Op(HypergOpValMul, pre*u.Val)
		result.Err = ctx.Op(HypergOpErrAdd,
			ctx.Op(HypergOpErrEps, DblEpsilon*math.Abs(result.Val))+
				ctx.Op(HypergOpErrPre, pre*u.Err))
		return statU
	case x == 0.0:
		result.Val = 1.0
		result.Err = 0.0
		return Success
	default:
		// x > 0: the asymptotic series is not defined (GSL: domain
		// error).
		result.Val = 0.0
		result.Err = 0.0
		return EDom
	}
}

// hypergU stands in for GSL's confluent hypergeometric U(a, b, z)
// (gsl_sf_hyperg_U_e) for z > 0: the divergent asymptotic expansion
//
//	U(a,b,z) ≈ z^-a · Σ_{n=0..N} (a)_n (a-b+1)_n / (n! (-z)^n)
//
// truncated at its smallest term (classical optimal truncation), with
// the first omitted term as the error estimate. Faithful to GSL in the
// respects the experiment relies on: it reports Success even when the
// Pochhammer products overflow to ±Inf for large parameters, leaving
// the caller to multiply Inf into a "successful" result.
func hypergU(a, b, z float64, result *Result) Status {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(z) {
		result.Val = math.NaN()
		result.Err = math.NaN()
		return EDom
	}
	pre := math.Pow(z, -a)
	sum := 1.0
	term := 1.0
	minTerm := math.Abs(term)
	errEst := 0.0
	// When a or a-b+1 is a non-positive integer the Pochhammer symbols
	// terminate the expansion: the series is an exact polynomial and
	// must be summed in full. Its coefficients grow factorially and —
	// exactly as in GSL — can overflow to ±Inf mid-sum while the
	// function still reports Success (the Table 5 mechanism).
	terminating := isNonPosInt(a) || isNonPosInt(a-b+1)
	for n := 0; n < 4096; n++ {
		fn := float64(n)
		term *= (a + fn) * (a - b + 1 + fn) / ((fn + 1) * -z)
		if term == 0 {
			errEst = 0
			break
		}
		at := math.Abs(term)
		if !terminating && at > minTerm && n > 0 {
			// Divergence point reached: optimal truncation.
			errEst = at
			break
		}
		minTerm = at
		sum += term
		errEst = at
		if math.IsInf(sum, 0) || math.IsNaN(sum) {
			break
		}
	}
	result.Val = pre * sum
	result.Err = math.Abs(pre)*errEst + DblEpsilon*math.Abs(result.Val)
	return Success
}

// isNonPosInt reports whether v is 0, -1, -2, … (a terminating
// Pochhammer parameter).
func isNonPosInt(v float64) bool {
	return v <= 0 && v == math.Floor(v) && !math.IsInf(v, 0)
}
