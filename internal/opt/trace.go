package opt

// Trace records the sampling sequence of a minimization run. The paper's
// figures 3(c), 4(c) and 9 plot exactly this: the n-th sampled input (and
// derived statistics) against n.
//
// Samples are stored flat — inputs row-major in one slice, values in
// another — so recording one is two amortized appends.
type Trace struct {
	dim int
	xs  []float64 // sample i's input is xs[i*dim : (i+1)*dim]
	fs  []float64
}

// Sample is one recorded objective evaluation.
type Sample struct {
	N int       // 1-based evaluation index
	X []float64 // sampled input (a view into the trace; do not modify)
	F float64   // objective value
}

func (t *Trace) record(x []float64, f float64) {
	t.dim = len(x)
	t.xs = append(t.xs, x...)
	t.fs = append(t.fs, f)
}

// Len returns the number of evaluations recorded.
func (t *Trace) Len() int { return len(t.fs) }

func (t *Trace) sample(i int) Sample {
	lo, hi := i*t.dim, (i+1)*t.dim
	return Sample{N: i + 1, X: t.xs[lo:hi:hi], F: t.fs[i]}
}

// Samples returns the recorded samples in evaluation order.
func (t *Trace) Samples() []Sample {
	ss := make([]Sample, len(t.fs))
	for i := range ss {
		ss[i] = t.sample(i)
	}
	return ss
}

// Zeros returns the recorded samples whose objective value is exactly
// zero — for weak distances these are precisely the reported solutions
// (Def. 3.1(b)).
func (t *Trace) Zeros() []Sample {
	var zs []Sample
	for i, f := range t.fs {
		if f == 0 {
			zs = append(zs, t.sample(i))
		}
	}
	return zs
}
