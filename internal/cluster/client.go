package cluster

import (
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
	// HC is the HTTP client (nil = a default with no global timeout;
	// callers bound requests with contexts instead, because result
	// polls on a busy worker legitimately take long).
	HC *http.Client
}

func (c *Client) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return http.DefaultClient
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

// do issues one request and decodes the response into out (when
// non-nil), mapping non-2xx answers to errors: 429 becomes
// *ErrWorkerBusy, everything else an error quoting the problem
// document. Transport failures are returned as-is — the caller's
// signal that the worker, not the request, is in trouble.
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
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
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
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode, Method: method, Path: path}
		var p problemDoc
		if json.Unmarshal(data, &p) == nil && p.Title != "" {
			se.Title, se.Detail = p.Title, p.Detail
		} else {
			se.Detail = string(data)
		}
		return se
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return nil
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

// Page fetches one result page of a worker-side job.
func (c *Client) Page(ctx context.Context, jobID string, offset, limit int) (pipeline.JobView, error) {
	var v pipeline.JobView
	path := fmt.Sprintf("/v1/jobs/%s?offset=%d&limit=%d", jobID, offset, limit)
	err := c.do(ctx, http.MethodGet, path, nil, &v)
	return v, err
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
