package cluster_test

// Result-stream failure modes: a worker marked dead while its event
// stream is open and silent, and a stream the worker drops mid-batch.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/pipeline"
)

// TestCoordinatorAbandonsStreamOfDeadWorker: a worker that keeps
// serving /v1 but fails its health probes is marked dead while the
// coordinator reads its open, silent event stream. The stream must end
// there, and the worker's unfinished jobs complete on the survivor.
func TestCoordinatorAbandonsStreamOfDeadWorker(t *testing.T) {
	// Six jobs on one program split 4/2 under bounded load, so the sick
	// worker holds at least two.
	jobs := testBatch(1, 6, 60)
	want := goldenRun(t, jobs)

	var sick atomic.Bool
	var streams atomic.Int64
	ws := []*worker{
		startWorker(t, 1, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" && sick.Load() {
					http.Error(w, "sick", http.StatusServiceUnavailable)
					return
				}
				if strings.HasSuffix(r.URL.Path, "/events") {
					streams.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		}),
		startWorker(t, 1, nil),
	}
	// A hog on the sick worker's only slot hunts an unreachable path
	// (the guard x < 1 under bounds [100, 200]) through a budget of
	// seconds, and the worker's shutdown cancels it. The sub-batch
	// queues behind it, so its stream stays open and silent while the
	// probes notice the flip; at most one of its jobs can run first, if
	// it takes the slot before the hog does.
	if _, err := ws[0].srv.Engine.Submit([]pipeline.Job{{Source: testProgram(0), Func: "f", Spec: analysis.Spec{
		Analysis: "reach", Seed: 1, Starts: 4, Evals: 10_000_000, Workers: 1,
		Backend: "basinhopping",
		Path:    []instrument.Decision{{Site: 0, Taken: true}},
		Bounds:  []opt.Bound{{Lo: 100, Hi: 200}}}}}, 0); err != nil {
		t.Fatal(err)
	}
	eng, coord := coordEngine(t, ws, cluster.Config{Seed: 11})
	rec, err := eng.Submit(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a stream open to the sick worker", func() bool { return streams.Load() > 0 })
	sick.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var got []string
	if status := pipeline.FollowJob(ctx, rec, func(b []byte) {
		got = append(got, string(pipeline.NormalizeDurations(b)))
	}); status != pipeline.JobCompleted {
		t.Fatalf("batch ended %q (%s), want completed on the survivor", status, rec.Header().Reason)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs from the single-node run:\n%s\nvs\n%s", i, want[i], got[i])
		}
	}
	st := coord.Stats()
	if st.Requeued == 0 {
		t.Fatalf("nothing requeued off the sick worker: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Name == ws[0].name() && w.Alive {
			t.Fatalf("sick worker %s still marked alive: %+v", w.Name, w)
		}
	}
}

// TestCoordinatorResumesDroppedStream: the worker drops the first event
// stream right after its first result. The coordinator reads the stream
// again from its start and skips the result it already delivered, so
// every index arrives exactly once and nothing requeues.
func TestCoordinatorResumesDroppedStream(t *testing.T) {
	jobs := testBatch(1, 6, 60)
	want := goldenRun(t, jobs)

	var dropped, aborted atomic.Bool
	ws := []*worker{startWorker(t, 1, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") && dropped.CompareAndSwap(false, true) {
				w = &dropAfterResult{ResponseWriter: w, aborted: &aborted}
			}
			h.ServeHTTP(w, r)
		})
	})}
	eng, coord := coordEngine(t, ws, cluster.Config{Seed: 5})
	delivered := make([]atomic.Int64, len(jobs))
	eng.Runner = func(ctx context.Context, batch []pipeline.Job, base int, emit func(int, json.RawMessage)) {
		coord.Run(ctx, batch, base, func(i int, raw json.RawMessage) {
			delivered[i].Add(1)
			emit(i, raw)
		})
	}
	got := followAll(t, eng, jobs, pipeline.JobCompleted)

	if !aborted.Load() {
		t.Fatal("the first event stream was never dropped")
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs from the single-node run:\n%s\nvs\n%s", i, want[i], got[i])
		}
	}
	for i := range delivered {
		if n := delivered[i].Load(); n != 1 {
			t.Fatalf("index %d delivered %d times, want once", i, n)
		}
	}
	st := coord.Stats()
	if st.Requeued != 0 || !st.Workers[0].Alive {
		t.Fatalf("a dropped stream cost the worker: requeued %d, alive %v", st.Requeued, st.Workers[0].Alive)
	}
}

// dropAfterResult passes an event stream through until its first
// result event has been flushed to the client, then aborts the
// response.
type dropAfterResult struct {
	http.ResponseWriter
	aborted *atomic.Bool
	result  bool
}

func (d *dropAfterResult) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("event: result")) {
		d.result = true
	}
	return d.ResponseWriter.Write(b)
}

func (d *dropAfterResult) Flush() {
	d.ResponseWriter.(http.Flusher).Flush()
	if d.result {
		d.aborted.Store(true)
		panic(http.ErrAbortHandler)
	}
}
