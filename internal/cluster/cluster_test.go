package cluster_test

// End-to-end coordinator tests over real fpserve workers (httptest
// servers running the full /v1 surface): byte-identity of fanned-out
// batches against a single-node run, requeue onto survivors after a
// mid-batch worker kill, and fleet-level backpressure aggregation.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/pipeline"
)

// testProgram generates the i-th distinct FPL source: different
// constants give different content addresses, so a batch spreads over
// the ring.
func testProgram(i int) string {
	return fmt.Sprintf(
		"func f(x double, y double) double {\n    if (x < %d.0) { return x + y; }\n    return x * %d.5;\n}",
		i+1, i+2)
}

// testBatch builds a deterministic mixed batch over n programs with
// specsPer analyses each.
func testBatch(n, specsPer, evals int) []pipeline.Job {
	var jobs []pipeline.Job
	analyses := []string{"coverage", "overflow", "nan"}
	for p := 0; p < n; p++ {
		src := testProgram(p)
		for s := 0; s < specsPer; s++ {
			spec := analysis.Spec{
				Analysis: analyses[s%len(analyses)],
				Seed:     int64(p*100 + s + 1),
				Evals:    evals,
				Workers:  1,
			}
			switch spec.Analysis {
			case "coverage":
				spec.Stall = 2
			case "overflow", "nan":
				spec.Rounds = 4
				spec.Retries = 1
			}
			jobs = append(jobs, pipeline.Job{Source: src, Func: "f", Spec: spec})
		}
	}
	return jobs
}

// worker is one in-process fpserve node.
type worker struct {
	srv *pipeline.Server
	ts  *httptest.Server
}

func (w *worker) url() string  { return w.ts.URL }
func (w *worker) name() string { u, _ := url.Parse(w.ts.URL); return u.Host }

// kill simulates abrupt worker death: connections drop and the engine
// stops burning CPU, with nothing journaled and nothing drained.
func (w *worker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.srv.Engine.Kill()
}

func startWorkers(t testing.TB, n, pipelineWorkers int) []*worker {
	t.Helper()
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = startWorker(t, pipelineWorkers, nil)
	}
	return ws
}

// startWorker starts one node; wrap, when non-nil, sits in front of
// its handler.
func startWorker(t testing.TB, pipelineWorkers int, wrap func(http.Handler) http.Handler) *worker {
	t.Helper()
	srv := pipeline.NewServer(pipelineWorkers)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	w := &worker{srv: srv, ts: httptest.NewServer(h)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.srv.Engine.Shutdown(ctx)
		cancel()
		w.ts.Close()
	})
	return w
}

// coordEngine builds a job engine whose Runner is a coordinator over
// the given workers.
func coordEngine(t testing.TB, ws []*worker, cfg cluster.Config) (*pipeline.JobEngine, *cluster.Coordinator) {
	t.Helper()
	for _, w := range ws {
		cfg.Workers = append(cfg.Workers, w.url())
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 50 * time.Millisecond
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	eng := pipeline.NewJobEngine(pipeline.New(1))
	eng.Runner = coord.Run
	eng.AdmitHook = coord.Admit
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		eng.Shutdown(ctx)
		cancel()
		coord.Close()
	})
	return eng, coord
}

// goldenRun executes the batch on a local single-node engine and
// returns the normalized wire results.
func goldenRun(t testing.TB, jobs []pipeline.Job) []string {
	t.Helper()
	eng := pipeline.NewJobEngine(pipeline.New(0))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		eng.Shutdown(ctx)
	}()
	return followAll(t, eng, jobs, pipeline.JobCompleted)
}

func followAll(t testing.TB, eng *pipeline.JobEngine, jobs []pipeline.Job, want pipeline.JobStatus) []string {
	t.Helper()
	rec, err := eng.Submit(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out []string
	status := pipeline.FollowJob(ctx, rec, func(b []byte) {
		out = append(out, string(pipeline.NormalizeDurations(b)))
	})
	if status != want {
		t.Fatalf("job ended %q (%s), want %q", status, rec.Header().Reason, want)
	}
	return out
}

// TestCoordinatorByteIdentity is the e2e acceptance test: a batch
// fanned over two workers returns results byte-identical to the same
// batch on a single node.
func TestCoordinatorByteIdentity(t *testing.T) {
	jobs := testBatch(6, 3, 60)
	want := goldenRun(t, jobs)

	ws := startWorkers(t, 2, 0)
	eng, coord := coordEngine(t, ws, cluster.Config{Seed: 7})
	got := followAll(t, eng, jobs, pipeline.JobCompleted)

	if len(got) != len(want) {
		t.Fatalf("cluster run returned %d results, single node %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs from the single-node run:\n%s\nvs\n%s", i, want[i], got[i])
		}
	}
	st := coord.Stats()
	if st.Dispatched != int64(len(jobs)) {
		t.Fatalf("dispatched %d, want %d", st.Dispatched, len(jobs))
	}
	routed := int64(0)
	for _, w := range st.Workers {
		routed += w.Routed
		if w.InFlight != 0 {
			t.Fatalf("worker %s still shows %d in-flight after the batch drained", w.Name, w.InFlight)
		}
	}
	if routed < int64(len(jobs)) {
		t.Fatalf("routed %d < %d jobs", routed, len(jobs))
	}
	// Program-hash routing: every worker that saw jobs registered at
	// least one program lazily.
	for _, w := range st.Workers {
		if w.Routed > 0 && w.Programs == 0 {
			t.Fatalf("worker %s routed %d jobs but registered no programs", w.Name, w.Routed)
		}
	}
}

// TestCoordinatorKillWorkerMidBatch kills the busiest worker while a
// 16-job batch on one registered program is in flight: every job must
// reach a terminal completed state on the survivor with results
// byte-identical to an uninterrupted single-node run, and the requeue
// counters must show the failover.
func TestCoordinatorKillWorkerMidBatch(t *testing.T) {
	// Every job burns its full eval budget before giving up: the path
	// (branch guard x < 1) is unreachable under bounds [100, 200], so
	// the batch stays in flight long enough to kill a worker under it,
	// yet terminates deterministically.
	src := testProgram(0)
	jobs := make([]pipeline.Job, 16)
	for i := range jobs {
		jobs[i] = pipeline.Job{Source: src, Func: "f", Spec: analysis.Spec{
			Analysis: "reach", Seed: int64(i + 1), Starts: 4, Evals: 300_000, Workers: 1,
			Backend: "basinhopping",
			Path:    []instrument.Decision{{Site: 0, Taken: true}},
			Bounds:  []opt.Bound{{Lo: 100, Hi: 200}}}}
	}
	want := goldenRun(t, jobs)

	ws := startWorkers(t, 2, 1)
	eng, coord := coordEngine(t, ws, cluster.Config{Seed: 11})
	rec, err := eng.Submit(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the batch to make some progress, then kill the worker
	// carrying the most in-flight jobs.
	deadline := time.Now().Add(time.Minute)
	for rec.Header().Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no results after a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var victim *worker
	var victimLoad int64
	for _, w := range ws {
		for _, st := range coord.Stats().Workers {
			if st.Name == w.name() && st.InFlight >= victimLoad {
				victim, victimLoad = w, st.InFlight
			}
		}
	}
	if victim == nil || victimLoad == 0 {
		t.Fatalf("no worker with in-flight jobs to kill (completed=%d)", rec.Header().Completed)
	}
	victim.kill()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var got []string
	if status := pipeline.FollowJob(ctx, rec, func(b []byte) {
		got = append(got, string(pipeline.NormalizeDurations(b)))
	}); status != pipeline.JobCompleted {
		t.Fatalf("batch ended %q (%s), want completed on the survivor", status, rec.Header().Reason)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results after the kill, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs from the uninterrupted single-node run:\n%s\nvs\n%s",
				i, want[i], got[i])
		}
	}
	st := coord.Stats()
	if st.Requeued == 0 {
		t.Fatal("kill mid-batch left requeue counter at 0")
	}
	for _, w := range st.Workers {
		if w.Name == victim.name() && w.Alive {
			t.Fatalf("killed worker %s still marked alive: %+v", w.Name, w)
		}
	}
}

// TestCoordinatorBackpressure: a worker's 429 load-shedding refusal
// folds into the coordinator's own admission control (fleet-level
// backpressure), and the shed sub-batch retries through once worker
// capacity frees up.
func TestCoordinatorBackpressure(t *testing.T) {
	ws := startWorkers(t, 1, 2)
	ws[0].srv.Engine.MaxInFlight = 1
	ws[0].srv.Engine.RetryAfter = 100 * time.Millisecond

	eng, coord := coordEngine(t, ws, cluster.Config{Seed: 3})

	// A hog job occupies the worker's single admission slot: an
	// unreachable path under a 10^7-eval basinhopping spec — it burns
	// until canceled.
	hog, err := eng.Submit([]pipeline.Job{{Builtin: "fig2", Spec: analysis.Spec{
		Analysis: "reach", Seed: 1, Starts: 1_000_000, Evals: 10_000_000, Workers: 1,
		Backend: "basinhopping",
		Path:    []instrument.Decision{{Site: 0, Taken: true}},
		Bounds:  []opt.Bound{{Lo: 100, Hi: 200}},
	}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hog dispatched to the worker", func() bool {
		for _, w := range coord.Stats().Workers {
			if w.InFlight > 0 {
				return true
			}
		}
		return false
	})

	// A second batch now 429s on submit; the coordinator keeps it
	// pending and opens its shed window.
	quick, err := eng.Submit([]pipeline.Job{{Source: testProgram(1), Func: "f", Spec: analysis.Spec{
		Analysis: "coverage", Seed: 2, Evals: 60, Stall: 2, Workers: 1}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker shed recorded", func() bool { return coord.Stats().WorkerShed > 0 })

	// While the shed window is open, fleet admission refuses new work
	// with the aggregated Retry-After hint.
	waitFor(t, "coordinator admission refusal", func() bool {
		err := coord.Admit(1)
		var over pipeline.ErrOverloaded
		return errors.As(err, &over) && over.RetryAfter > 0
	})

	// Cancel the hog: its slot frees, the shed batch's retry loop gets
	// through, and the batch completes normally.
	if _, ok, _ := eng.Cancel(hog.ID); !ok {
		t.Fatal("hog job not found for cancel")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if status := pipeline.FollowJob(ctx, quick, func([]byte) {}); status != pipeline.JobCompleted {
		t.Fatalf("shed batch ended %q (%s), want completed after the hog slot freed",
			status, quick.Header().Reason)
	}
	if status := pipeline.FollowJob(ctx, hog, func([]byte) {}); status != pipeline.JobCanceled {
		t.Fatalf("hog ended %q, want canceled", status)
	}

	st := coord.Stats()
	if st.WorkerShed == 0 || st.AdmitShed == 0 {
		t.Fatalf("shed counters: worker=%d admit=%d, want both > 0", st.WorkerShed, st.AdmitShed)
	}
}

// waitFor polls cond for up to 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
