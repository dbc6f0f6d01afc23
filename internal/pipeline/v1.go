package pipeline

// This file implements the fpserve /v1 resource API: registered
// programs, asynchronous jobs with SSE streaming and cancellation, and
// the problem+json error model. See docs/api.md for the endpoint
// reference.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/gofront"
	"repro/internal/opt"
	"repro/internal/sat"
)

// v1h wraps a /v1 handler with the per-request deadline: a
// Request-Timeout header (a Go duration, e.g. "2s" or "500ms") bounds
// the request's context. Malformed values are a validation problem.
func v1h(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if raw := r.Header.Get("Request-Timeout"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d <= 0 {
				validationProblem(w, "bad Request-Timeout header",
					[]*analysis.SpecError{{Field: "Request-Timeout", Value: raw,
						Reason: "want a positive Go duration, e.g. 2s or 500ms"}})
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// --- Programs ---

// programRegisterRequest is the POST /v1/programs payload.
type programRegisterRequest struct {
	// Source is the program source to register.
	Source string `json:"source"`
	// Lang names the source language: "fpl" (the default) or "go".
	Lang string `json:"lang,omitempty"`
	// Func optionally selects the default analyzed function (empty =
	// first declared).
	Func string `json:"func,omitempty"`
}

func (s *Server) handleProgramRegister(w http.ResponseWriter, r *http.Request) {
	var req programRegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		validationProblem(w, "bad request body: "+err.Error(), nil)
		return
	}
	if req.Source == "" {
		validationProblem(w, "empty program",
			[]*analysis.SpecError{{Field: "source", Reason: "source is required"}})
		return
	}
	lg, err := gofront.ParseLang(req.Lang)
	if err != nil {
		validationProblem(w, "bad program language",
			[]*analysis.SpecError{{Field: "lang", Value: req.Lang, Reason: err.Error()}})
		return
	}
	info, existed, err := s.Programs.Register(lg, req.Source, req.Func, time.Now().UTC())
	if err != nil {
		var full ErrStoreFull
		if errors.As(err, &full) {
			writeProblem(w, http.StatusInsufficientStorage, problemOverloaded,
				"program store full",
				fmt.Sprintf("the store holds its maximum of %d programs; DELETE one to make room", full.Max))
			return
		}
		validationProblem(w, "program does not compile",
			[]*analysis.SpecError{{Field: "source", Reason: err.Error()}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/programs/"+info.ID)
	if existed {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleProgramList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Programs []ProgramInfo `json:"programs"`
	}{Programs: s.Programs.List()})
}

func (s *Server) handleProgramGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, _, ok := s.Programs.Lookup(id)
	if !ok {
		notFoundProblem(w, "program", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleProgramDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Programs.Delete(id) {
		notFoundProblem(w, "program", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Jobs ---

// V1Job is one unit of a /v1 batch: a pipeline Job that may also
// reference a registered program by ID instead of carrying source.
type V1Job struct {
	// Program references a registered program ("sha256:<hex>"); the
	// job runs under the language the program was registered with.
	Program string `json:"program,omitempty"`
	// Builtin / Source / Lang / Func are the inline forms (see Job).
	Builtin string `json:"builtin,omitempty"`
	Source  string `json:"source,omitempty"`
	Lang    string `json:"lang,omitempty"`
	Func    string `json:"func,omitempty"`
	// Spec selects and configures the analysis.
	Spec analysis.Spec `json:"spec"`
}

// jobSubmitRequest is the POST /v1/jobs payload: an explicit job list,
// or one program fanned over a spec list, plus the job deadline.
type jobSubmitRequest struct {
	Jobs []V1Job `json:"jobs,omitempty"`
	// Program / Builtin / Source / Lang / Func name one program for
	// the shorthand form.
	Program string          `json:"program,omitempty"`
	Builtin string          `json:"builtin,omitempty"`
	Source  string          `json:"source,omitempty"`
	Lang    string          `json:"lang,omitempty"`
	Func    string          `json:"func,omitempty"`
	Specs   []analysis.Spec `json:"specs,omitempty"`
	// Timeout is the job's deadline as a Go duration ("30s"); on expiry
	// the job is cancelled mid-minimization and keeps its partial
	// results. Empty means no deadline.
	Timeout string `json:"timeout,omitempty"`
}

func (req jobSubmitRequest) v1jobs() []V1Job {
	if len(req.Jobs) > 0 {
		return req.Jobs
	}
	out := make([]V1Job, 0, len(req.Specs))
	for _, sp := range req.Specs {
		out = append(out, V1Job{Program: req.Program, Builtin: req.Builtin,
			Source: req.Source, Lang: req.Lang, Func: req.Func, Spec: sp})
	}
	return out
}

// resolveJobs validates the batch field-by-field and lowers every V1Job
// to a pipeline Job (program references become their registered
// source, hitting the same cache slot registration warmed). It returns
// every validation failure, not just the first, each located by its
// job index.
func (s *Server) resolveJobs(v1jobs []V1Job) ([]Job, []*analysis.SpecError) {
	var errs []*analysis.SpecError
	loc := func(i int, field string) string { return fmt.Sprintf("jobs[%d].%s", i, field) }
	jobs := make([]Job, 0, len(v1jobs))
	for i, vj := range v1jobs {
		job := Job{Builtin: vj.Builtin, Source: vj.Source, Lang: vj.Lang, Func: vj.Func, Spec: vj.Spec}

		if _, err := gofront.ParseLang(vj.Lang); err != nil {
			errs = append(errs, &analysis.SpecError{Field: loc(i, "lang"),
				Value: vj.Lang, Reason: err.Error()})
			jobs = append(jobs, job)
			continue
		}

		a, err := analysis.Lookup(vj.Spec.Analysis)
		var spe *analysis.SpecError
		if err != nil {
			if errors.As(err, &spe) {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.analysis"),
					Value: spe.Value, Reason: spe.Reason})
			} else {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.analysis"), Reason: err.Error()})
			}
			jobs = append(jobs, job)
			continue
		}

		sources := 0
		for _, set := range []bool{vj.Program != "", vj.Builtin != "", vj.Source != ""} {
			if set {
				sources++
			}
		}
		if sources > 1 {
			errs = append(errs, &analysis.SpecError{Field: loc(i, "program"),
				Reason: "set at most one of program, builtin, source"})
			jobs = append(jobs, job)
			continue
		}
		if vj.Program != "" {
			info, src, ok := s.Programs.Lookup(vj.Program)
			if !ok {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "program"), Value: vj.Program,
					Reason: fmt.Sprintf("unknown program %q: register it via POST /v1/programs", vj.Program)})
				jobs = append(jobs, job)
				continue
			}
			job.Source = src
			// The registration's language travels with the source: a
			// program-referencing job always runs under the language it
			// was registered with.
			job.Lang = info.Lang
			if job.Func == "" {
				job.Func = info.Func
			}
		}
		if a.Knobs().Program && job.Builtin == "" && job.Source == "" {
			errs = append(errs, &analysis.SpecError{Field: loc(i, "program"),
				Reason: fmt.Sprintf("analysis %q needs a program: set program, builtin, or source", a.Name())})
		}
		if a.Knobs().Formula {
			if vj.Spec.Formula == "" {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.formula"),
					Reason: fmt.Sprintf("analysis %q needs a formula", a.Name())})
			} else if _, _, err := sat.Parse(vj.Spec.Formula); err != nil {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.formula"),
					Value: vj.Spec.Formula, Reason: err.Error()})
			}
		}
		if a.Knobs().Path {
			bad := len(vj.Spec.Path) == 0
			for _, d := range vj.Spec.Path {
				if d.Site < 0 {
					bad = true
				}
			}
			if bad {
				errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.path"),
					Reason: "empty or invalid path; want e.g. [{\"Site\": 0, \"Taken\": true}]"})
			}
		}
		// Pair validity only (NaN, lo > hi) — the dimension check needs
		// the program and happens at run time.
		if _, err := opt.BroadcastBounds(vj.Spec.Bounds, len(vj.Spec.Bounds)); err != nil {
			errs = append(errs, &analysis.SpecError{Field: loc(i, "spec.bounds"), Reason: err.Error()})
		}
		if spe := vj.Spec.Validate(); spe != nil {
			errs = append(errs, &analysis.SpecError{Field: loc(i, "spec."+spe.Field),
				Value: spe.Value, Reason: spe.Reason})
		}
		jobs = append(jobs, job)
	}
	return jobs, errs
}

// jobSubmitResponse is the 202 body of POST /v1/jobs.
type jobSubmitResponse struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Jobs   int       `json:"jobs"`
	// URL and Events locate the job resource and its SSE stream.
	URL    string `json:"url"`
	Events string `json:"events"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		validationProblem(w, "bad request body: "+err.Error(), nil)
		return
	}
	var timeout time.Duration
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			validationProblem(w, "bad job timeout",
				[]*analysis.SpecError{{Field: "timeout", Value: req.Timeout,
					Reason: "want a positive Go duration, e.g. 30s"}})
			return
		}
		timeout = d
	}
	v1jobs := req.v1jobs()
	if len(v1jobs) == 0 {
		validationProblem(w, "no jobs",
			[]*analysis.SpecError{{Field: "jobs",
				Reason: "set jobs, or program/builtin/source plus specs"}})
		return
	}
	if len(v1jobs) > maxJobsPerRequest {
		writeProblem(w, http.StatusBadRequest, problemTooLarge, "batch too large",
			fmt.Sprintf("%d jobs exceeds the per-request limit of %d", len(v1jobs), maxJobsPerRequest))
		return
	}
	jobs, errs := s.resolveJobs(v1jobs)
	if len(errs) > 0 {
		validationProblem(w, plural(len(errs), "validation error")+" across "+plural(len(v1jobs), "job"), errs)
		return
	}
	rec, err := s.Engine.Submit(jobs, timeout)
	if err != nil {
		s.submitProblem(w, err)
		return
	}
	s.requests.Add(1)
	s.jobs.Add(int64(len(jobs)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(jobSubmitResponse{
		ID:     rec.ID,
		Status: JobRunning,
		Jobs:   rec.Total,
		URL:    "/v1/jobs/" + rec.ID,
		Events: "/v1/jobs/" + rec.ID + "/events",
	})
}

// submitProblem maps a Submit refusal to its wire form. Load shedding —
// admission-control watermarks and a job table full of non-terminal
// jobs — is 429 with a Retry-After hint: the client did nothing wrong,
// the server is momentarily full. Transient storage failures are 503
// with the same hint (the server could not make the submission durable
// right now). Shutdown is 503 without a hint.
func (s *Server) submitProblem(w http.ResponseWriter, err error) {
	var over ErrOverloaded
	switch {
	case errors.As(err, &over):
		setRetryAfter(w, over.RetryAfter)
		writeProblem(w, http.StatusTooManyRequests, problemOverloaded,
			"too many jobs in flight", err.Error())
	case errors.Is(err, ErrJobTableFull):
		setRetryAfter(w, s.Engine.retryAfter())
		writeProblem(w, http.StatusTooManyRequests, problemOverloaded,
			"job table full", err.Error()+"; retry after some finish, or cancel one")
	case errors.Is(err, ErrShuttingDown):
		writeProblem(w, http.StatusServiceUnavailable, problemShutdown,
			"cannot accept jobs", err.Error())
	case Retryable(err):
		setRetryAfter(w, s.Engine.retryAfter())
		writeProblem(w, http.StatusServiceUnavailable, problemOverloaded,
			"submission not durable", err.Error())
	default:
		writeProblem(w, http.StatusServiceUnavailable, problemOverloaded,
			"cannot accept jobs", err.Error())
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.Engine.List()})
}

// defaultResultPage bounds GET /v1/jobs/{id} result pages when the
// client does not pass an explicit limit.
const defaultResultPage = 256

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	// Validate pagination before the lookup, so a malformed request is
	// a 400 whether or not the job exists.
	offset, limit := 0, defaultResultPage
	q := r.URL.Query()
	var errs []*analysis.SpecError
	if raw := q.Get("offset"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			errs = append(errs, &analysis.SpecError{Field: "offset", Value: raw,
				Reason: "want a nonnegative integer"})
		} else {
			offset = v
		}
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			errs = append(errs, &analysis.SpecError{Field: "limit", Value: raw,
				Reason: "want a positive integer"})
		} else {
			limit = v
		}
	}
	if len(errs) > 0 {
		validationProblem(w, "bad pagination", errs)
		return
	}
	id := r.PathValue("id")
	rec, ok := s.Engine.Get(id)
	if !ok {
		notFoundProblem(w, "job", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec.View(offset, limit))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, wasRunning, ok := s.Engine.Cancel(id)
	if !ok {
		notFoundProblem(w, "job", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if wasRunning {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(rec.View(0, defaultResultPage))
}

// handleJobEvents streams a job as Server-Sent Events: one "result"
// event per job result as it lands, then one "done" event with the
// final status. A subscriber attaching late replays the existing
// results first — the stream always delivers the complete sequence.
// While the job runs quietly, periodic "heartbeat" events (every
// Server.Heartbeat) let the client tell a slow minimization from a dead
// connection; and when the job ends because the server is draining, a
// terminal "shutdown" event precedes "done" so the client knows to
// reconnect elsewhere rather than resubmit.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.Engine.Get(id)
	if !ok {
		notFoundProblem(w, "job", id)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	emit := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// status/done events carry the job header only — the results
	// themselves are the "result" events.
	type statusEvent struct {
		ID        string     `json:"id"`
		Status    JobStatus  `json:"status"`
		Jobs      int        `json:"jobs"`
		Completed int        `json:"completed"`
		Created   time.Time  `json:"created"`
		Finished  *time.Time `json:"finished,omitempty"`
		Reason    string     `json:"reason,omitempty"`
	}
	statusJSON := func() []byte {
		v := rec.Header()
		b, _ := json.Marshal(statusEvent{
			ID: v.ID, Status: v.Status, Jobs: v.Jobs, Completed: v.Completed,
			Created: v.Created, Finished: v.Finished, Reason: v.Reason,
		})
		return b
	}

	emit("status", statusJSON())
	final := FollowJobHeartbeat(r.Context(), rec, s.Heartbeat, func(res []byte) {
		emit("result", res)
	}, func() {
		emit("heartbeat", statusJSON())
	})
	if final == JobRunning {
		return // the client went away first
	}
	if v := rec.Header(); v.Reason == errShutdown.Error() {
		emit("shutdown", statusJSON())
	}
	emit("done", statusJSON())
}
