package opt_test

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/opt"
)

// flatAbs has an exact-zero plateau [c-1, c+1], reachable by every
// backend, so FoundZero outcomes are exercised deterministically.
func flatAbs(c float64) opt.Objective {
	return func(x []float64) float64 {
		return math.Max(math.Abs(x[0]-c)-1, 0)
	}
}

// TestParallelStartsMatchesSerialBackend verifies that every executed
// start of the parallel driver reproduces a plain serial backend run
// with the same derived seed, bit for bit.
func TestParallelStartsMatchesSerialBackend(t *testing.T) {
	backend := &opt.Basinhopping{}
	const starts, seed, stride = 6, 42, 7919
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}

	got := opt.ParallelStarts(backend, func(int) opt.Objective { return flatAbs(50) },
		1, opt.ParallelConfig{
			Starts: starts, Workers: 4, Seed: seed, SeedStride: stride,
			MaxEvals: 500, Bounds: bounds,
		})

	for s := 0; s < starts; s++ {
		want := backend.Minimize(flatAbs(50), 1, opt.Config{
			Seed: seed + int64(s)*stride, MaxEvals: 500, Bounds: bounds,
		})
		if got[s].Skipped {
			t.Fatalf("start %d skipped without StopAtZero", s)
		}
		if !reflect.DeepEqual(got[s].Result, want) {
			t.Errorf("start %d: parallel %+v != serial %+v", s, got[s].Result, want)
		}
	}
}

// TestParallelStartsWorkerInvariance verifies the core determinism
// contract: identical per-start results, and identical evaluations
// seen by each start's objective, for every worker count.
func TestParallelStartsWorkerInvariance(t *testing.T) {
	run := func(workers int) ([]opt.StartResult, [][]int) {
		zeros := make([][]int, 8)
		res := opt.ParallelStarts(&opt.Basinhopping{}, func(s int) opt.Objective {
			obj, n := flatAbs(9), 0
			return func(x []float64) float64 {
				n++
				f := obj(x)
				if f == 0 {
					zeros[s] = append(zeros[s], n)
				}
				return f
			}
		}, 1, opt.ParallelConfig{
			Starts: 8, Workers: workers, Seed: 7, SeedStride: 1000003,
			MaxEvals: 400, Bounds: []opt.Bound{{Lo: -20, Hi: 20}},
		})
		return res, zeros
	}
	base, baseZeros := run(1)
	for _, w := range []int{2, 8} {
		got, gotZeros := run(w)
		for s := range base {
			if !reflect.DeepEqual(got[s].Result, base[s].Result) {
				t.Errorf("workers=%d start %d: %+v != %+v", w, s, got[s].Result, base[s].Result)
			}
			if !reflect.DeepEqual(gotZeros[s], baseZeros[s]) {
				t.Errorf("workers=%d start %d: zeros at evaluations %v != %v", w, s, gotZeros[s], baseZeros[s])
			}
		}
	}
	if len(baseZeros[0]) == 0 {
		t.Fatal("start 0 sampled no zero; the zero comparison checks nothing")
	}
}

// TestParallelStartsDrain verifies the stop-at-zero contract: once the
// lowest accepted zero is known, every start at or below it has run,
// and the merged (serial-fold) outcome is worker-invariant.
func TestParallelStartsDrain(t *testing.T) {
	// Starts >= 3 see an objective that is zero everywhere; lower
	// starts see an unsatisfiable positive objective.
	factory := func(start int) opt.Objective {
		if start >= 3 {
			return func([]float64) float64 { return 0 }
		}
		return func(x []float64) float64 { return 1 + math.Abs(x[0]) }
	}
	for _, w := range []int{1, 4, 16} {
		got := opt.ParallelStarts(&opt.RandomSearch{}, factory, 1, opt.ParallelConfig{
			Starts: 16, Workers: w, Seed: 1, MaxEvals: 50,
			Bounds: []opt.Bound{{Lo: -1, Hi: 1}}, StopAtZero: true,
		})
		for s := 0; s <= 3; s++ {
			if got[s].Skipped {
				t.Fatalf("workers=%d: start %d skipped but is at or below the first zero", w, s)
			}
		}
		if !got[3].FoundZero || !got[3].ZeroAccepted {
			t.Fatalf("workers=%d: start 3 should find an accepted zero: %+v", w, got[3])
		}
		for s := 0; s < 3; s++ {
			if got[s].FoundZero {
				t.Errorf("workers=%d: start %d cannot find a zero", w, s)
			}
		}
	}
}

// TestParallelStartsDrainStopsRunningStart verifies that a start
// already running when a lower-index start finds an accepted zero stops
// at its next evaluation and reports Skipped, instead of running out
// its budget.
func TestParallelStartsDrainStopsRunningStart(t *testing.T) {
	const budget = 1000
	started := make(chan struct{})
	var once sync.Once
	factory := func(start int) opt.Objective {
		if start == 0 {
			// Zero everywhere, but only once start 1 is running, so
			// start 1 is always in flight when the zero lands.
			return func([]float64) float64 {
				<-started
				return 0
			}
		}
		return func(x []float64) float64 {
			once.Do(func() { close(started) })
			time.Sleep(time.Millisecond)
			return 1 + math.Abs(x[0])
		}
	}
	got := opt.ParallelStarts(&opt.RandomSearch{}, factory, 1, opt.ParallelConfig{
		Starts: 2, Workers: 2, Seed: 1, MaxEvals: budget,
		Bounds: []opt.Bound{{Lo: -1, Hi: 1}}, StopAtZero: true,
	})
	if !got[0].FoundZero || !got[0].ZeroAccepted || got[0].Skipped {
		t.Fatalf("start 0 should find an accepted zero: %+v", got[0])
	}
	if !got[1].Skipped || got[1].Canceled {
		t.Errorf("start 1 should be Skipped, not Canceled: %+v", got[1])
	}
	if got[1].Evals > budget/10 {
		t.Errorf("drained start 1 ran %d of its %d evaluations", got[1].Evals, budget)
	}
}

// TestParallelStartsOneWorkerStaysOnCaller verifies that a one-worker
// run evaluates on the calling goroutine and starts no other.
func TestParallelStartsOneWorkerStaysOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	during := -1
	opt.ParallelStarts(&opt.RandomSearch{}, func(int) opt.Objective {
		return func(x []float64) float64 {
			if during < 0 {
				during = runtime.NumGoroutine()
			}
			return 1
		}
	}, 1, opt.ParallelConfig{Starts: 3, Workers: 1, Seed: 1, MaxEvals: 5})
	if during > before {
		t.Errorf("%d goroutines during a one-worker run, %d before it", during, before)
	}
}

// TestParallelStartsAcceptGuard verifies that rejected zeros do not
// drain the queue: later starts still run and can supply the solution.
func TestParallelStartsAcceptGuard(t *testing.T) {
	zero := func(int) opt.Objective {
		return func([]float64) float64 { return 0 }
	}
	got := opt.ParallelStarts(&opt.RandomSearch{}, zero, 1, opt.ParallelConfig{
		Starts: 6, Workers: 3, Seed: 1, MaxEvals: 10,
		Bounds:     []opt.Bound{{Lo: -1, Hi: 1}},
		StopAtZero: true,
		Accept:     func(start int, _ opt.Result) bool { return start >= 2 },
	})
	for s := 0; s <= 2; s++ {
		if got[s].Skipped {
			t.Fatalf("start %d skipped; first accepted zero is at 2", s)
		}
	}
	if !got[2].ZeroAccepted {
		t.Fatal("start 2's zero should be accepted")
	}
	for s := 0; s < 2; s++ {
		if got[s].ZeroAccepted {
			t.Errorf("start %d's zero should be rejected by the guard", s)
		}
	}
}
