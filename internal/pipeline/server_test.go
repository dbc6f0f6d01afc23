package pipeline_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// runV1Batch submits a POST /v1/jobs body and follows the job over its
// SSE event stream to the done event, returning the result events'
// bytes in order. It reports failures instead of failing the test, so
// concurrent clients can call it.
func runV1Batch(base, body string) ([]string, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		Events string `json:"events"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, err
	}
	events, err := streamSSE(base+sub.Events, 60*time.Second)
	if err != nil {
		return nil, err
	}
	var results []string
	for _, ev := range events {
		switch ev.name {
		case "result":
			results = append(results, ev.data)
		case "done":
			var v pipeline.JobView
			if err := json.Unmarshal([]byte(ev.data), &v); err != nil {
				return nil, err
			}
			if v.Status != pipeline.JobCompleted {
				return nil, fmt.Errorf("job ended %s (%s)", v.Status, v.Reason)
			}
			return results, nil
		}
	}
	return nil, fmt.Errorf("event stream ended without a done event after %d results", len(results))
}

// TestServeConcurrentBitIdentical is the fpserve acceptance test: 8
// concurrent /v1 batches over one shared module cache, each followed
// over its event stream, return results byte-identical (durations
// masked) to the serial in-process registry path, and the cached module
// is never recompiled.
func TestServeConcurrentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent request sweep in -short mode")
	}
	src := loadFixtures(t)["fig2.fpl"]
	srv, ts := v1Server(t, 0)
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	specs := []analysis.Spec{
		{Analysis: "coverage", Seed: 2, Evals: 300, Stall: 2, Workers: 1, Bounds: bounds},
		{Analysis: "bva", Seed: 1, Starts: 2, Evals: 200, Workers: 1, Bounds: bounds},
		{Analysis: "overflow", Seed: 3, Evals: 300, Rounds: 6, Workers: 1},
		{Analysis: "nan", Seed: 5, Evals: 300, Rounds: 6, Workers: 1},
	}
	body, err := json.Marshal(struct {
		Source string          `json:"source"`
		Func   string          `json:"func"`
		Specs  []analysis.Spec `json:"specs"`
	}{src, "prog", specs})
	if err != nil {
		t.Fatal(err)
	}

	// The serial oracle: the same jobs through the registry directly,
	// one at a time, rendered through the same wire encoding.
	var want []string
	for i, spec := range specs {
		a, err := analysis.Lookup(spec.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		p, err := weakCompile(src, "prog")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Run(context.Background(), analysis.Input{Program: p}, spec)
		if err != nil {
			t.Fatal(err)
		}
		res := pipeline.JobResult{Index: i, Analysis: a.Name(), Program: p.Name,
			Report: rep, Summary: rep.Summary(), Failed: rep.Failed()}
		want = append(want, normalizeJSON(string(pipeline.MarshalResult(res))))
	}
	wantAll := strings.Join(want, "\n")

	const clients = 8
	got := make([][]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], errs[c] = runV1Batch(ts.URL, string(body))
		}(c)
	}
	wg.Wait()

	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Errorf("client %d: %v", c, errs[c])
			continue
		}
		if gotAll := normalizeJSON(strings.Join(got[c], "\n")); gotAll != wantAll {
			t.Errorf("client %d diverged from the serial path.\ngot:  %s\nwant: %s", c, gotAll, wantAll)
		}
	}

	// One source, one engine: exactly one compilation across all eight
	// concurrent batches — cached-module jobs never recompile.
	if st := srv.PL.Cache.Stats(); st.Compiles != 1 {
		t.Errorf("module compiled %d times across %d concurrent batches, want 1 (stats %+v)",
			st.Compiles, clients, st)
	}

	// The operational endpoints and the analysis listing respond.
	for _, path := range []string{"/stats", "/healthz", "/v1/analyses"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}
}

// TestServeBadRequests covers the HTTP error surface outside the
// problem goldens: malformed submissions are refused before anything is
// scheduled, a job-level failure is a result rather than an HTTP error,
// and the retired unversioned routes are gone.
func TestServeBadRequests(t *testing.T) {
	_, ts := v1Server(t, 1)

	for _, path := range []string{"/analyze", "/analyses"} {
		for _, method := range []string{"GET", "POST"} {
			resp, _ := doJSON(t, method, ts.URL+path, `{"builtin": "fig2", "specs": [{"analysis": "bva"}]}`)
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
			}
		}
	}
	for _, body := range []string{"", "{}", `{"jobs": []}`, `{"nonsense": 1}`} {
		resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}

	// A job-level failure is a result, not an HTTP error.
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"builtin": "nope", "specs": [{"analysis": "bva"}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unknown builtin: status %d, want 202: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)
	v := pollJob(t, ts.URL, sub.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})
	if len(v.Results) != 1 || decodeResult(t, v.Results[0]).Error == "" {
		t.Errorf("job-level failure: %+v", v)
	}
}

// weakCompile compiles FPL source outside the pipeline cache (the
// serial-oracle path).
func weakCompile(src, fn string) (*rt.Program, error) {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil, err
	}
	return interp.New(mod).Program(fn)
}
