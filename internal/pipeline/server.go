package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/journal"
	"repro/internal/opt"
)

// Server is the fpserve HTTP front end: the /v1 resource API plus the
// operational /stats and /healthz endpoints, over one pipeline (one
// module cache, one worker-pool bound) and one job engine, so program
// registrations and jobs share compilation and cancellation plumbing.
type Server struct {
	// PL is the shared pipeline.
	PL *Pipeline
	// Engine is the async job engine behind /v1/jobs.
	Engine *JobEngine
	// Programs is the /v1 registered-program store.
	Programs *ProgramStore
	// Heartbeat is the SSE liveness-pulse interval for /v1 job event
	// streams (0 disables heartbeat events).
	Heartbeat time.Duration
	// Logf, when non-nil, receives operational log lines (recovered
	// handler panics).
	Logf func(format string, args ...any)
	// ClusterStats, when non-nil, contributes a "cluster" document to
	// /stats — fpserve's coordinator mode plugs its per-worker routing,
	// requeue, and shed counters in here. A func-valued hook (rather
	// than a concrete type) keeps pipeline free of a cluster import.
	ClusterStats func() any

	requests atomic.Int64
	jobs     atomic.Int64
	panicked atomic.Int64
}

// NewServer returns a server over a fresh pipeline. workers bounds
// concurrently running jobs across ALL in-flight requests (0 = all
// CPUs).
func NewServer(workers int) *Server {
	pl := New(workers)
	return &Server{
		PL:       pl,
		Engine:   NewJobEngine(pl),
		Programs: NewProgramStore(pl.Cache),
	}
}

// Shutdown gracefully stops the server's job engine: no new
// submissions, every in-flight job cancelled (landing within one
// objective evaluation), drained until done or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.Engine.Shutdown(ctx)
}

// Handler returns the fpserve route table.
//
// Versioned API (see docs/api.md):
//
//	POST   /v1/programs          — register FPL source (content-addressed)
//	GET    /v1/programs          — list registered programs
//	GET    /v1/programs/{id}     — inspect a program
//	DELETE /v1/programs/{id}     — evict a program (and its cached modules)
//	POST   /v1/jobs              — submit an async batch → job id
//	GET    /v1/jobs              — list tracked jobs
//	GET    /v1/jobs/{id}         — job status + paginated results
//	GET    /v1/jobs/{id}/events  — SSE stream of results and completion
//	DELETE /v1/jobs/{id}         — cancel a running job
//	GET    /v1/analyses          — list registered analyses
//
// Errors are application/problem+json with field-level spec-validation
// details. Every /v1 request honors a Request-Timeout header (a Go
// duration) as its deadline.
//
// Operational endpoints:
//
//	GET  /stats    — module-cache, job-engine, and traffic counters
//	GET  /healthz  — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// Versioned resource API.
	mux.HandleFunc("POST /v1/programs", v1h(s.handleProgramRegister))
	mux.HandleFunc("GET /v1/programs", v1h(s.handleProgramList))
	mux.HandleFunc("GET /v1/programs/{id}", v1h(s.handleProgramGet))
	mux.HandleFunc("DELETE /v1/programs/{id}", v1h(s.handleProgramDelete))
	mux.HandleFunc("POST /v1/jobs", v1h(s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", v1h(s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", v1h(s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", v1h(s.handleJobEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", v1h(s.handleJobCancel))
	mux.HandleFunc("GET /v1/analyses", v1h(s.handleAnalyses))
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeProblem(w, http.StatusNotFound, problemNotFound, "unknown resource",
			"no /v1 resource at "+r.URL.Path)
	})

	// Operational endpoints.
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return s.recovered(mux)
}

// recovered is the outermost panic boundary: a handler bug (as opposed
// to a job bug, which the pipeline's per-job boundary absorbs) answers
// 500 problem+json instead of tearing down the connection with no
// response, and the full stack goes to the server log keyed by the same
// digest the client sees.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v) // deliberate connection abort: not ours to absorb
			}
			stack := debug.Stack()
			s.panicked.Add(1)
			digest := stackDigest(stack)
			if s.Logf != nil {
				s.Logf("fpserve: panic in %s %s [stack sha256:%s]: %v\n%s",
					r.Method, r.URL.Path, digest, v, stack)
			}
			// Headers may already be gone (mid-stream panic); this is
			// best-effort by construction.
			writeProblem(w, http.StatusInternalServerError, problemInternal,
				"internal error",
				fmt.Sprintf("the request handler panicked [stack sha256:%s]; this is a server bug", digest))
		}()
		next.ServeHTTP(w, r)
	})
}

// Request-hardening limits: a request body may not exceed
// maxRequestBytes, and one request may not enqueue more than
// maxJobsPerRequest jobs.
const (
	maxRequestBytes   = 8 << 20
	maxJobsPerRequest = 4096
)

func (s *Server) handleAnalyses(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name        string        `json:"name"`
		Description string        `json:"description"`
		DefaultSpec analysis.Spec `json:"defaultSpec"`
	}
	var out []entry
	for _, a := range analysis.All() {
		out = append(out, entry{Name: a.Name(), Description: a.Describe(), DefaultSpec: a.DefaultSpec()})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := struct {
		Requests int64       `json:"requests"`
		Jobs     int64       `json:"jobs"`
		Cache    CacheStats  `json:"cache"`
		Engine   EngineStats `json:"engine"`
		Programs int         `json:"programs"`
		// Journal appears when the server runs durably (-data-dir).
		Journal *journal.Stats `json:"journal,omitempty"`
		// HandlerPanics counts panics the HTTP recover boundary absorbed
		// (job panics are counted under engine.panics instead).
		HandlerPanics int64 `json:"handlerPanics,omitempty"`
		// EvalsByBackend is the process-wide objective-evaluation ledger
		// per MO backend (portfolio stages under "portfolio/<stage>").
		EvalsByBackend map[string]int64 `json:"evalsByBackend,omitempty"`
		// Cluster appears in coordinator mode: per-worker routing,
		// requeue, and shed counters.
		Cluster any `json:"cluster,omitempty"`
	}{
		Requests:       s.requests.Load(),
		Jobs:           s.jobs.Load(),
		Cache:          s.PL.Cache.Stats(),
		Engine:         s.Engine.Stats(),
		Programs:       s.Programs.Len(),
		HandlerPanics:  s.panicked.Load(),
		EvalsByBackend: opt.EvalCounts(),
	}
	if ds, ok := s.Engine.Store.(*DurableStore); ok {
		js := ds.Stats()
		stats.Journal = &js
	}
	if s.ClusterStats != nil {
		stats.Cluster = s.ClusterStats()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}
