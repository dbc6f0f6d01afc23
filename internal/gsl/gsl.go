// Package gsl ports the GNU Scientific Library special functions that
// the paper's overflow-detection experiment targets (§6.3, Tables 3-5):
//
//   - gsl_sf_bessel_Knu_scaled_asympx_e (bessel.c) — ported verbatim
//     from the paper's Fig. 5, with all 23 elementary floating-point
//     operations as observation sites (the rows of Table 4);
//   - gsl_sf_hyperg_2F0_e (hyperg_2F0.c) — the x<0 branch via
//     pre = pow(-1/x, a) and a confluent-U evaluation (GSL's
//     gsl_sf_hyperg_U_e is substituted by its optimally truncated
//     asymptotic series, see hypergU);
//   - gsl_sf_airy_Ai_e (airy.c) — with the oscillatory-region pipeline
//     airy_mod_phase → cheb_eval_mode → gsl_sf_cos_err_e, reproducing
//     the two confirmed bugs: the division by a vanished Chebyshev sum
//     in airy_mod_phase's error propagation (Bug 1) and cos_err
//     returning values far outside [-1, 1] for huge phase arguments
//     (Bug 2).
//
// Every port follows the GSL convention the paper's inconsistency
// analysis relies on: results are (val, err) pairs plus an integer
// status, and an *inconsistency* is a run with status == Success whose
// val or err is ±Inf or NaN (Table 5).
package gsl

import "math"

// Result mirrors gsl_sf_result: a value and an absolute error estimate.
type Result struct {
	Val float64
	Err float64
}

// Status mirrors the gsl_errno.h codes used by the ports.
type Status int

// GSL status codes (subset).
const (
	Success  Status = 0
	EDom     Status = 1  // GSL_EDOM: input domain error
	ERange   Status = 2  // GSL_ERANGE: output range error
	EUndrflw Status = 15 // GSL_EUNDRFLW: underflow
	EOvrflw  Status = 16 // GSL_EOVRFLW: overflow
)

// String renders the status like GSL's gsl_strerror.
func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case EDom:
		return "input domain error"
	case ERange:
		return "output range error"
	case EUndrflw:
		return "underflow"
	case EOvrflw:
		return "overflow"
	}
	return "unknown error"
}

// errorSelect2 mirrors GSL_ERROR_SELECT_2: the first non-success status.
func errorSelect2(a, b Status) Status {
	if a != Success {
		return a
	}
	return b
}

// GSL numeric constants (gsl_machine.h).
const (
	// DblEpsilon is GSL_DBL_EPSILON.
	DblEpsilon = 2.2204460492503131e-16
	// SqrtDblEpsilon is GSL_SQRT_DBL_EPSILON.
	SqrtDblEpsilon = 1.4901161193847656e-08
	// Root4DblEpsilon is GSL_ROOT4_DBL_EPSILON.
	Root4DblEpsilon = 1.2207031250000000e-04
	// LogDblMin is GSL_LOG_DBL_MIN.
	LogDblMin = -7.0839641853226408e+02
)

// Inconsistent reports whether a computation outcome is an inconsistency
// in the paper's sense (§6.3.2): the status claims success while the
// result carries a non-finite value or error estimate.
func Inconsistent(r Result, st Status) bool {
	return st == Success &&
		(math.IsInf(r.Val, 0) || math.IsNaN(r.Val) ||
			math.IsInf(r.Err, 0) || math.IsNaN(r.Err))
}
