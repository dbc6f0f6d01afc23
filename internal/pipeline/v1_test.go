package pipeline_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/pipeline"
)

// v1Server builds a test server whose job engine is drained at cleanup
// (so cancelled long-running jobs never outlive the test).
func v1Server(t testing.TB, workers int) (*pipeline.Server, *httptest.Server) {
	t.Helper()
	srv := pipeline.NewServer(workers)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("engine drain at cleanup: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

func doJSON(t testing.TB, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// testResult is the result-shape tests assert on (JobView carries
// results as raw MarshalResult JSON).
type testResult struct {
	Index    int    `json:"index"`
	Analysis string `json:"analysis"`
	Summary  string `json:"summary"`
	Failed   bool   `json:"failed"`
	Error    string `json:"error"`
	Canceled bool   `json:"canceled"`
}

func decodeResult(t testing.TB, raw json.RawMessage) testResult {
	t.Helper()
	return decode[testResult](t, raw)
}

func decode[T any](t testing.TB, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	return v
}

// pollJob GETs the job until pred holds or the deadline passes.
func pollJob(t testing.TB, url, id string, deadline time.Duration, pred func(pipeline.JobView) bool) pipeline.JobView {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, data := doJSON(t, "GET", url+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, data)
		}
		v := decode[pipeline.JobView](t, data)
		if pred(v) {
			return v
		}
		if time.Now().After(end) {
			t.Fatalf("job %s did not reach the expected state within %v: %+v", id, deadline, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const v1TestSource = "func prog(x double) double {\n    if (x < 1.0) { return x + 1.0; }\n    return x * 2.0;\n}"

// longReachBody is a job that would burn ~10^13 objective evaluations
// if nothing cancelled it: an unreachable path (the branch guard x < 1
// cannot hold under bounds [100, 200]) under a 10^7-eval basinhopping
// spec with a million restarts.
func longReachBody(timeout string) string {
	b := `{
		"jobs": [{"builtin": "fig2", "spec": {
			"analysis": "reach", "seed": 1, "starts": 1000000, "evals": 10000000,
			"workers": 2, "backend": "basinhopping",
			"path": [{"Site": 0, "Taken": true}],
			"bounds": [{"lo": 100, "hi": 200}]}}]`
	if timeout != "" {
		b += `, "timeout": "` + timeout + `"`
	}
	return b + "}"
}

// TestV1ProgramLifecycle: register → re-register (idempotent) → get →
// list → delete → 404.
func TestV1ProgramLifecycle(t *testing.T) {
	srv, ts := v1Server(t, 2)
	body := fmt.Sprintf(`{"source": %q, "func": "prog"}`, v1TestSource)

	resp, data := doJSON(t, "POST", ts.URL+"/v1/programs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}
	info := decode[pipeline.ProgramInfo](t, data)
	if info.ID != pipeline.SourceID(v1TestSource) {
		t.Errorf("ID = %q, want content address %q", info.ID, pipeline.SourceID(v1TestSource))
	}
	if info.Func != "prog" || info.Dim != 1 || info.Branches != 1 {
		t.Errorf("unexpected metadata: %+v", info)
	}
	if got := resp.Header.Get("Location"); got != "/v1/programs/"+info.ID {
		t.Errorf("Location = %q", got)
	}

	// Idempotent re-registration returns 200 and the same resource.
	resp, data = doJSON(t, "POST", ts.URL+"/v1/programs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: status %d: %s", resp.StatusCode, data)
	}
	if again := decode[pipeline.ProgramInfo](t, data); again.ID != info.ID {
		t.Errorf("re-register changed the ID: %q vs %q", again.ID, info.ID)
	}
	if st := srv.PL.Cache.Stats(); st.Compiles != 1 {
		t.Errorf("registration compiled %d times, want 1", st.Compiles)
	}

	resp, data = doJSON(t, "GET", ts.URL+"/v1/programs/"+info.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/programs", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(info.ID)) {
		t.Fatalf("list: status %d: %s", resp.StatusCode, data)
	}

	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/programs/"+info.ID, "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/programs/"+info.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
		t.Errorf("404 content type %q", ct)
	}
}

// TestV1JobRoundTrip is the register→submit→poll→paginate→SSE happy
// path, with the job's program referenced by content address.
func TestV1JobRoundTrip(t *testing.T) {
	srv, ts := v1Server(t, 0)

	_, data := doJSON(t, "POST", ts.URL+"/v1/programs", fmt.Sprintf(`{"source": %q}`, v1TestSource))
	prog := decode[pipeline.ProgramInfo](t, data)

	submit := fmt.Sprintf(`{
		"jobs": [
			{"program": %q, "spec": {"analysis": "coverage", "seed": 1, "evals": 300, "stall": 2,
			  "bounds": [{"lo": -100, "hi": 100}]}},
			{"program": %q, "spec": {"analysis": "bva", "seed": 1, "starts": 2, "evals": 200,
			  "bounds": [{"lo": -100, "hi": 100}]}},
			{"spec": {"analysis": "xsat", "seed": 1, "formula": "x < 1 && x + 1 >= 2"}}
		]}`, prog.ID, prog.ID)
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID     string `json:"id"`
		Jobs   int    `json:"jobs"`
		URL    string `json:"url"`
		Events string `json:"events"`
	}](t, data)
	if sub.Jobs != 3 || sub.URL != "/v1/jobs/"+sub.ID {
		t.Fatalf("submit response: %+v", sub)
	}

	done := pollJob(t, ts.URL, sub.ID, 60*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})
	if done.Completed != 3 || len(done.Results) != 3 || done.Finished == nil {
		t.Fatalf("completed view: %+v", done)
	}
	for i, raw := range done.Results {
		if r := decodeResult(t, raw); r.Error != "" || r.Index != i {
			t.Errorf("result %d: %+v", i, r)
		}
	}
	// The registered program was compiled exactly once, at registration;
	// both jobs referencing it were cache hits.
	if st := srv.PL.Cache.Stats(); st.Compiles != 1 {
		t.Errorf("program compiled %d times across registration + 2 jobs, want 1", st.Compiles)
	}

	// Pagination: one result per page, positions preserved.
	resp, data = doJSON(t, "GET", ts.URL+"/v1/jobs/"+sub.ID+"?offset=1&limit=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paginate: status %d: %s", resp.StatusCode, data)
	}
	page := decode[pipeline.JobView](t, data)
	if len(page.Results) != 1 || page.NextOffset == nil || *page.NextOffset != 2 {
		t.Fatalf("page: %+v", page)
	}
	if r := decodeResult(t, page.Results[0]); r.Index != 1 {
		t.Fatalf("page result: %+v", r)
	}

	// SSE attach-after-completion replays every result, then done.
	events := readSSE(t, ts.URL+sub.Events, 30*time.Second)
	var results int
	var sawDone bool
	for _, ev := range events {
		switch ev.name {
		case "result":
			results++
		case "done":
			sawDone = true
			v := decode[pipeline.JobView](t, []byte(ev.data))
			if v.Status != pipeline.JobCompleted {
				t.Errorf("done event status: %+v", v)
			}
		}
	}
	if results != 3 || !sawDone {
		t.Fatalf("SSE replay: %d result events, done=%v (%v)", results, sawDone, events)
	}
}

type sseEvent struct{ name, data string }

// readSSE consumes an SSE stream until the done event, EOF, or the
// deadline.
func readSSE(t testing.TB, url string, deadline time.Duration) []sseEvent {
	t.Helper()
	events, err := streamSSE(url, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// streamSSE is readSSE for goroutines other than the test's own: it
// returns failures instead of failing the test.
func streamSSE(url string, deadline time.Duration) ([]sseEvent, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("SSE: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("SSE content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events, nil
				}
				cur = sseEvent{}
			}
		}
	}
	return events, nil
}

// TestV1CancelMidMinimization is the acceptance criterion: DELETE on a
// job running a 10^7-eval basinhopping spec terminates it promptly —
// the cancellation reaches the objective wrapper within one evaluation,
// so a job that would otherwise run for ~10^13 evaluations stops in
// milliseconds.
func TestV1CancelMidMinimization(t *testing.T) {
	_, ts := v1Server(t, 2)

	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)

	// Give the minimizer time to get deep into its budget, then cancel.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	resp, data = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+sub.ID, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", resp.StatusCode, data)
	}
	v := pollJob(t, ts.URL, sub.ID, 15*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCanceled
	})
	elapsed := time.Since(start)
	// Generous CI bound; the expected latency is one objective
	// evaluation (microseconds) plus scheduling.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if v.Reason != "canceled by client" {
		t.Errorf("reason = %q", v.Reason)
	}
	if v.Completed != 1 {
		t.Fatalf("canceled job results: %+v", v)
	}
	// The in-flight job returns its partial result, marked canceled.
	if r := decodeResult(t, v.Results[0]); !r.Canceled {
		t.Errorf("partial result not marked canceled: %+v", r)
	}

	// Cancelling a finished job is a no-op 200.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+sub.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("re-cancel: status %d", resp.StatusCode)
	}
}

// TestV1DeadlineExpiry: a batch with a body-level timeout keeps the
// results that finished before the deadline and marks the job canceled
// with the deadline as the reason.
func TestV1DeadlineExpiry(t *testing.T) {
	_, ts := v1Server(t, 1) // serial: the quick job completes first
	body := fmt.Sprintf(`{
		"jobs": [
			{"source": %q, "spec": {"analysis": "coverage", "seed": 1, "evals": 200, "stall": 2,
			  "workers": 1, "bounds": [{"lo": -100, "hi": 100}]}},
			{"builtin": "fig2", "spec": {
			  "analysis": "reach", "seed": 1, "starts": 1000000, "evals": 10000000,
			  "workers": 1, "path": [{"Site": 0, "Taken": true}],
			  "bounds": [{"lo": 100, "hi": 200}]}}
		],
		"timeout": "400ms"}`, v1TestSource)
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)

	v := pollJob(t, ts.URL, sub.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCanceled
	})
	if v.Reason != context.DeadlineExceeded.Error() {
		t.Errorf("reason = %q", v.Reason)
	}
	if v.Completed != 2 {
		t.Fatalf("partial result set: %+v", v)
	}
	if r := decodeResult(t, v.Results[0]); r.Error != "" || r.Canceled {
		t.Errorf("pre-deadline job should have finished cleanly: %+v", r)
	}
	if r := decodeResult(t, v.Results[1]); !r.Canceled {
		t.Errorf("post-deadline job not marked canceled: %+v", r)
	}
}

// TestV1ShutdownGraceful: Shutdown cancels running jobs promptly and
// subsequent submissions are refused with a shutting-down problem.
func TestV1ShutdownGraceful(t *testing.T) {
	srv, ts := v1Server(t, 2)
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	v := pollJob(t, ts.URL, sub.ID, 5*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCanceled
	})
	if v.Reason != "server shutdown" {
		t.Errorf("reason = %q", v.Reason)
	}
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d: %s", resp.StatusCode, data)
	}
	p := decode[pipeline.ProblemDetails](t, data)
	if p.Type != "urn:fpserve:problem:shutting-down" {
		t.Errorf("problem type %q", p.Type)
	}
}

// TestV1ProblemGolden locks the problem+json error model to golden
// fixtures: field-level spec-validation details, not-found, bad
// pagination, and the per-request job limit.
func TestV1ProblemGolden(t *testing.T) {
	_, ts := v1Server(t, 1)
	// One job over the per-request limit of 4096: refused up front, not
	// scheduled.
	var tooLarge strings.Builder
	tooLarge.WriteString(`{"builtin": "fig2", "specs": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			tooLarge.WriteString(",")
		}
		tooLarge.WriteString(`{"analysis": "bva"}`)
	}
	tooLarge.WriteString(`]}`)
	cases := []struct {
		golden, method, path, body string
		status                     int
	}{
		{"problem_validation.json", "POST", "/v1/jobs", `{
			"jobs": [
				{"spec": {"analysis": "nope"}},
				{"builtin": "fig2", "source": "func f(x double) double { return x; }",
				 "spec": {"analysis": "bva"}},
				{"program": "sha256:beef", "spec": {"analysis": "coverage"}},
				{"spec": {"analysis": "bva", "backend": "gradient"}},
				{"spec": {"analysis": "xsat"}},
				{"spec": {"analysis": "xsat", "formula": "x <"}},
				{"builtin": "fig2", "spec": {"analysis": "reach"}},
				{"builtin": "fig2", "spec": {"analysis": "bva",
				 "bounds": [{"lo": 1, "hi": 0}]}}
			]}`, http.StatusBadRequest},
		// Workers sizes allocations before any work runs, so it is capped.
		{"problem_resource_limits.json", "POST", "/v1/jobs", `{
			"jobs": [
				{"builtin": "fig2", "spec": {"analysis": "coverage", "workers": 200000000, "evals": 10}}
			]}`, http.StatusBadRequest},
		{"problem_no_jobs.json", "POST", "/v1/jobs", `{}`, http.StatusBadRequest},
		{"problem_bad_timeout.json", "POST", "/v1/jobs",
			`{"builtin": "fig2", "specs": [{"analysis": "bva"}], "timeout": "soon"}`, http.StatusBadRequest},
		{"problem_job_not_found.json", "GET", "/v1/jobs/job-404", "", http.StatusNotFound},
		{"problem_program_not_found.json", "GET", "/v1/programs/sha256:dead", "", http.StatusNotFound},
		{"problem_bad_pagination.json", "GET", "/v1/jobs/job-404?offset=-1&limit=zero", "", http.StatusBadRequest},
		{"problem_unknown_resource.json", "GET", "/v1/nope", "", http.StatusNotFound},
		{"problem_bad_request_timeout.json", "GET", "/v1/jobs", "", http.StatusBadRequest},
		{"problem_too_large.json", "POST", "/v1/jobs", tooLarge.String(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.golden == "problem_bad_request_timeout.json" {
				req.Header.Set("Request-Timeout", "later")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
				t.Errorf("content type %q", ct)
			}
			checkGolden(t, tc.golden, string(data))
		})
	}
}

// TestJobTTLEvictionOnRead: a quiet engine (no further submissions)
// still sheds finished jobs past their TTL, because reads sweep too.
func TestJobTTLEvictionOnRead(t *testing.T) {
	srv, ts := v1Server(t, 1)
	srv.Engine.TTL = 50 * time.Millisecond
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs",
		`{"jobs": [{"spec": {"analysis": "xsat", "seed": 1, "formula": "x < 1"}}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)
	pollJob(t, ts.URL, sub.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sub.ID, "")
		if resp.StatusCode == http.StatusNotFound {
			break // evicted by the read-path sweep
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job survived its TTL with no further submissions")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobCapacityEvictionOnlyOnSubmit: polling a full table must never
// destroy fresh finished results; only a submission needing the slot
// evicts (oldest finished first), and a table full of running jobs
// refuses with 429 + Retry-After (load shedding, not an outage: the
// client should back off and retry, and running jobs are never evicted
// to make room).
func TestJobCapacityEvictionOnlyOnSubmit(t *testing.T) {
	srv, ts := v1Server(t, 2)
	srv.Engine.MaxTrackedJobs = 1
	quick := `{"jobs": [{"spec": {"analysis": "xsat", "seed": 1, "formula": "x < 1"}}]}`

	_, data := doJSON(t, "POST", ts.URL+"/v1/jobs", quick)
	first := decode[struct {
		ID string `json:"id"`
	}](t, data)
	pollJob(t, ts.URL, first.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})
	// Reads at capacity must keep returning the finished job.
	for i := 0; i < 5; i++ {
		if resp, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %d at capacity: status %d — read path evicted a fresh job", i, resp.StatusCode)
		}
	}
	// A new submission takes the slot by evicting the finished job.
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", quick)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit at capacity with a finished occupant: status %d: %s", resp.StatusCode, data)
	}
	second := decode[struct {
		ID string `json:"id"`
	}](t, data)
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID, ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job still present: status %d", resp.StatusCode)
	}
	pollJob(t, ts.URL, second.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})

	// A running occupant refuses further submissions.
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long submit: status %d: %s", resp.StatusCode, data)
	}
	long := decode[struct {
		ID string `json:"id"`
	}](t, data)
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", quick)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit with running occupant: status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 refusal carries no Retry-After hint")
	}
	if p := decode[pipeline.ProblemDetails](t, data); p.Status != http.StatusTooManyRequests {
		t.Errorf("problem body status %d, want 429", p.Status)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+long.ID, "")
}

// TestV1RetiredSpecFields: the retired engine, portfolio stall and
// lanes knobs are unknown spec fields, refused like any other.
func TestV1RetiredSpecFields(t *testing.T) {
	_, ts := v1Server(t, 1)
	for _, field := range []string{`"engine": "vm"`, `"stallRatio": 0.05`, `"lanes": 64`} {
		resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs",
			`{"jobs": [{"builtin": "fig2", "spec": {"analysis": "bva", `+field+`}}]}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown field") {
			t.Errorf("%s: status %d: %s", field, resp.StatusCode, data)
		}
	}
}

// TestV1SpecErrorParity pins the satellite contract: the typed
// SpecError renders on the CLI exactly as the /v1 problem details
// report it — same reason string, plus the field/value structure.
func TestV1SpecErrorParity(t *testing.T) {
	_, err := analysis.Lookup("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	spe, ok := err.(*analysis.SpecError)
	if !ok {
		t.Fatalf("Lookup error is %T, not *analysis.SpecError", err)
	}
	if spe.Field != "analysis" || spe.Value != "nope" {
		t.Errorf("structure: %+v", spe)
	}
	if err.Error() != spe.Reason {
		t.Errorf("Error() = %q, Reason = %q — CLI rendering diverged", err.Error(), spe.Reason)
	}

	_, ts := v1Server(t, 1)
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"jobs": [{"spec": {"analysis": "nope"}}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	p := decode[pipeline.ProblemDetails](t, data)
	if len(p.Errors) != 1 {
		t.Fatalf("problem details: %+v", p)
	}
	if p.Errors[0].Reason != spe.Reason || p.Errors[0].Field != "jobs[0].spec.analysis" {
		t.Errorf("problem field detail diverged from the CLI error: %+v", p.Errors[0])
	}
}
