package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/pipeline"
)

// ErrWorkerBusy is a worker's 429 load-shedding refusal, carrying its
// Retry-After hint. The coordinator folds these into its own admission
// control (fleet-level backpressure) and retries the sub-batch after
// the hint elapses.
type ErrWorkerBusy struct {
	// RetryAfter is the worker's backoff hint (0 when absent).
	RetryAfter time.Duration
	// Detail is the problem document's detail line.
	Detail string
}

func (e *ErrWorkerBusy) Error() string {
	return fmt.Sprintf("worker shedding load (retry after %v): %s", e.RetryAfter, e.Detail)
}

// Client is a minimal /v1 API client for one fpserve worker.
type Client struct {
	// Base is the worker's base URL ("http://host:port").
	Base string
	// hc is the coordinator's HTTP client, shared by every worker's
	// Client. It has no global timeout: callers bound requests with
	// contexts instead, because a result stream stays open as long as
	// its sub-batch runs.
	hc *http.Client
}

// idleConnsPerWorker is how many idle connections the coordinator keeps
// to one worker. The coordinator holds one result stream open per
// sub-batch in flight on a worker, so a cap below that number
// (net/http's default is 2) closes the connections of streams that end
// together instead of reusing them for the next submit and stream.
const idleConnsPerWorker = 64

// newHTTPClient returns the coordinator's HTTP client: net/http's
// default transport settings, with idleConnsPerWorker idle connections
// kept per worker.
func newHTTPClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no fleet-wide cap; the per-worker one bounds it
	t.MaxIdleConnsPerHost = idleConnsPerWorker
	return &http.Client{Transport: t}
}

// problemDoc is the slice of application/problem+json the client
// surfaces in errors.
type problemDoc struct {
	Title  string `json:"title"`
	Detail string `json:"detail"`
	Status int    `json:"status"`
}

// StatusError is a non-2xx, non-429 worker answer.
type StatusError struct {
	Code          int
	Title, Detail string
	Method, Path  string
}

func (e *StatusError) Error() string {
	if e.Title != "" {
		return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.Path, e.Code, e.Title, e.Detail)
	}
	return fmt.Sprintf("%s %s: status %d: %s", e.Method, e.Path, e.Code, e.Detail)
}

// maxBody caps what the client reads of one worker answer: a response
// body, or one line of an event stream.
const maxBody = 16 << 20

// do issues one request and decodes the response into out (when
// non-nil), mapping non-2xx answers through answerError. Transport
// failures are returned as-is — the caller's signal that the worker,
// not the request, is in trouble.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("encoding %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return answerError(resp, data, method, path)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return nil
}

// answerError maps a non-2xx worker answer with body data to an error:
// 429 becomes *ErrWorkerBusy, everything else a *StatusError quoting
// the problem document.
func answerError(resp *http.Response, data []byte, method, path string) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		busy := &ErrWorkerBusy{}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			busy.RetryAfter = time.Duration(secs) * time.Second
		}
		var p problemDoc
		if json.Unmarshal(data, &p) == nil {
			busy.Detail = p.Detail
		}
		return busy
	}
	se := &StatusError{Code: resp.StatusCode, Method: method, Path: path}
	var p problemDoc
	if json.Unmarshal(data, &p) == nil && p.Title != "" {
		se.Title, se.Detail = p.Title, p.Detail
	} else {
		se.Detail = string(data)
	}
	return se
}

// Healthz probes the worker's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// RegisterProgram registers source (written in lang; empty = fpl) on
// the worker and returns its content address. Registration is
// idempotent — re-registering an already-known program is a 200 no-op
// — which is what makes lazy at-first-routing registration safe.
func (c *Client) RegisterProgram(ctx context.Context, source, lang, fn string) (string, error) {
	var info pipeline.ProgramInfo
	err := c.do(ctx, http.MethodPost, "/v1/programs", struct {
		Source string `json:"source"`
		Lang   string `json:"lang,omitempty"`
		Func   string `json:"func,omitempty"`
	}{Source: source, Lang: lang, Func: fn}, &info)
	if err != nil {
		return "", err
	}
	return info.ID, nil
}

// SubmitJobs submits a batch and returns the worker-side job ID. A
// load-shedding refusal is returned as *ErrWorkerBusy.
func (c *Client) SubmitJobs(ctx context.Context, jobs []pipeline.V1Job) (string, error) {
	var sub struct {
		ID string `json:"id"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/jobs", struct {
		Jobs []pipeline.V1Job `json:"jobs"`
	}{Jobs: jobs}, &sub)
	if err != nil {
		return "", err
	}
	return sub.ID, nil
}

// Follow reads a worker job's event stream (GET /v1/jobs/{id}/events)
// from its start and calls fn with each result event's data, in
// emission order, until the done event; it returns the status that
// event reports. data is valid only until fn returns. A stream opened
// again replays every result from the first, so a caller that
// reconnects skips those it has. An error from fn ends the read and is
// returned as-is; non-200 answers map as in do.
func (c *Client) Follow(ctx context.Context, jobID string, fn func(data json.RawMessage) error) (pipeline.JobStatus, error) {
	path := "/v1/jobs/" + jobID + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		if err != nil {
			return "", err
		}
		return "", answerError(resp, data, http.MethodGet, path)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxBody)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		if name, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(name)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		switch event {
		case "result":
			if err := fn(data); err != nil {
				return "", err
			}
		case "done":
			var done struct {
				Status pipeline.JobStatus `json:"status"`
			}
			if err := json.Unmarshal(data, &done); err != nil {
				return "", fmt.Errorf("decoding the done event of %s: %w", path, err)
			}
			// Read to the end, so the connection goes back to the pool.
			// The job's outcome is known by now: a failed read changes
			// nothing but the connection's reuse.
			io.Copy(io.Discard, resp.Body)
			return done.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("GET %s: %w before the done event", path, io.ErrUnexpectedEOF)
}

// Cancel requests cancellation of a worker-side job.
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, nil)
}

// errNotFound reports whether err is a worker 404 — after a worker
// restart (or an eviction) the job ID is gone, which the dispatcher
// treats like a death (requeue the jobs), not a transient to retry.
func errNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}
