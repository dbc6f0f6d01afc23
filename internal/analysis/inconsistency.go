package analysis

import (
	"math"

	"repro/internal/gsl"
)

// SFFunc is a GSL-convention special function: inputs to (result,
// status).
type SFFunc func(x []float64) (gsl.Result, gsl.Status)

// Inconsistency is a §6.3.2 finding: a run whose status claims success
// while the result carries non-finite values.
type Inconsistency struct {
	Input  []float64
	Val    float64
	Err    float64
	Status gsl.Status
	// Cause is a best-effort classification (Table 5's root-cause
	// column), filled by the caller or by Classify.
	Cause string
}

// CheckInconsistencies replays candidate inputs (typically the overflow
// findings of Algorithm 3) through the concrete function and returns
// the inconsistent ones, first occurrence of each input in input order
// — the |I| column of Table 3. The replay is one native call per input
// (tens per Table 3 row), so it runs serially: a goroutine pool costs
// more than the calls it would overlap.
func CheckInconsistencies(fn SFFunc, inputs [][]float64) []Inconsistency {
	var out []Inconsistency
	seen := map[string]bool{}
	for _, in := range inputs {
		res, st := fn(in)
		if !gsl.Inconsistent(res, st) {
			continue
		}
		key := fingerprint(in)
		if seen[key] {
			continue
		}
		seen[key] = true
		x := make([]float64, len(in))
		copy(x, in)
		out = append(out, Inconsistency{
			Input:  x,
			Val:    res.Val,
			Err:    res.Err,
			Status: st,
			Cause:  Classify(res),
		})
	}
	return out
}

// Classify gives the coarse root-cause label used in Table 5's last
// column based on the result's failure signature. Deeper attribution
// (which operand overflowed) comes from the overflow findings
// themselves.
func Classify(res gsl.Result) string {
	switch {
	case math.IsNaN(res.Val):
		return "NaN result (invalid operation, e.g. negative sqrt or Inf*0)"
	case math.IsInf(res.Val, 0):
		return "overflowed value with GSL_SUCCESS"
	case math.IsInf(res.Err, 0):
		return "overflowed error estimate (e.g. division by vanished term)"
	case math.IsNaN(res.Err):
		return "NaN error estimate"
	}
	return "consistent"
}

func fingerprint(x []float64) string {
	b := make([]byte, 0, len(x)*8)
	for _, v := range x {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return string(b)
}
