package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
)

// topology selects how the in-process service under test is wired.
type topology int

const (
	// volatileNode is one fpserve node without a journal.
	volatileNode topology = iota
	// fleet is a coordinator in front of two volatile workers, wired as
	// fuzz.RunLoad wires its self-hosted fleet.
	fleet
)

// fleetWorkers is the fleet size.
const fleetWorkers = 2

// system is a running in-process service: the front node the client
// talks to over loopback HTTP, plus, for a fleet, its workers.
type system struct {
	url     string
	front   *pipeline.Server
	hs      *httptest.Server
	workers []*pipeline.Server
	whs     []*httptest.Server
	coord   *cluster.Coordinator
}

// start brings a system up: nodes and coordinator. Programs are
// registered and warmed by the caller.
func start(topo topology, pr *probes) (*system, error) {
	s := &system{}
	switch topo {
	case volatileNode:
		s.front = pipeline.NewServer(0)
		pr.instrument(s.front, "node")
	case fleet:
		addrs := make([]string, fleetWorkers)
		for i := range addrs {
			w := pipeline.NewServer(1)
			pr.instrument(w, "worker")
			hs := httptest.NewServer(w.Handler())
			s.workers = append(s.workers, w)
			s.whs = append(s.whs, hs)
			addrs[i] = hs.URL
		}
		coord, err := cluster.New(cluster.Config{Workers: addrs})
		if err != nil {
			s.close()
			return nil, err
		}
		coord.Start()
		s.coord = coord
		s.front = pipeline.NewServer(1)
		s.front.Engine.Runner = pr.wrapFront(coord.Run)
		s.front.Engine.AdmitHook = coord.Admit
		s.front.ClusterStats = coord.StatsDoc
	}
	s.hs = httptest.NewServer(s.front.Handler())
	s.url = s.hs.URL
	return s, nil
}

// close stops every node.
func (s *system) close() {
	shutdown := func(srv *pipeline.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Engine.Shutdown(ctx)
	}
	if s.front != nil {
		shutdown(s.front)
	}
	if s.hs != nil {
		s.hs.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for i, w := range s.workers {
		shutdown(w)
		s.whs[i].Close()
	}
}

// nodeStats is the slice of an fpserve /stats document the benchmark
// reads.
type nodeStats struct {
	Cache          pipeline.CacheStats  `json:"cache"`
	Engine         pipeline.EngineStats `json:"engine"`
	EvalsByBackend map[string]int64     `json:"evalsByBackend"`
	Cluster        *cluster.Stats       `json:"cluster"`
}

// systemStats is a /stats snapshot of every node.
type systemStats struct {
	Front   nodeStats
	Workers []nodeStats
}

func (s *system) stats(ctx context.Context, c *client) (systemStats, error) {
	var out systemStats
	if err := c.getJSON(ctx, s.url+"/stats", &out.Front); err != nil {
		return out, err
	}
	for _, hs := range s.whs {
		var ws nodeStats
		if err := c.getJSON(ctx, hs.URL+"/stats", &ws); err != nil {
			return out, err
		}
		out.Workers = append(out.Workers, ws)
	}
	return out, nil
}

// probes hold the traced run's hooks into the service: spans around
// the runner and result encoding. A nil *probes (the untraced run)
// installs nothing.
type probes struct {
	tr *tracer
	// tmplOf maps a batch's content key to its template index.
	tmplOf map[[32]byte]int

	mu      sync.Mutex
	pending map[[32]byte][]time.Time // runner entries awaiting their first job start
	queue   []time.Duration
}

func newProbes(tr *tracer, t *traffic) *probes {
	p := &probes{tr: tr, tmplOf: map[[32]byte]int{}, pending: map[[32]byte][]time.Time{}}
	for i := range t.Templates {
		p.tmplOf[batchKey(t.libraryJobs(i))] = i
	}
	return p
}

// batchKey is the content key of a batch: what the server was asked to
// run, independent of which submission carried it.
func batchKey(jobs []pipeline.Job) [32]byte {
	b, _ := json.Marshal(jobs)
	return sha256.Sum256(b)
}

// jobKey keys a single job, matching a batch by its first job.
func jobKey(j pipeline.Job) [32]byte { return batchKey([]pipeline.Job{j}) }

// instrument installs the node runner on srv: the same Stream +
// MarshalResult the engine's default runner performs, with spans
// around the batch and the encoding, and the pipeline's per-job hook
// marking when the batch's first job leaves the queue.
func (p *probes) instrument(srv *pipeline.Server, node string) {
	if p == nil {
		return
	}
	pl := srv.PL
	pl.InjectPanic = func(idx int, j pipeline.Job) string {
		if idx == 0 {
			k := jobKey(j)
			now := time.Now()
			p.mu.Lock()
			if q := p.pending[k]; len(q) > 0 {
				p.queue = append(p.queue, now.Sub(q[0]))
				p.pending[k] = q[1:]
			}
			p.mu.Unlock()
		}
		return ""
	}
	srv.Engine.Runner = func(ctx context.Context, jobs []pipeline.Job, base int, emit func(int, json.RawMessage)) {
		t0 := time.Now()
		tmpl := p.tmplOf[batchKey(jobs)]
		if base == 0 && len(jobs) > 0 {
			k := jobKey(jobs[0])
			p.mu.Lock()
			p.pending[k] = append(p.pending[k], t0)
			p.mu.Unlock()
		}
		id := p.tr.begin("engine.run."+node, 0, tmpl, 0)
		pl.Stream(ctx, jobs, func(r pipeline.JobResult) {
			r.Index += base
			e0 := time.Now()
			b := pipeline.MarshalResult(r)
			p.tr.add("encode.result", 0, tmpl, id, e0, time.Now())
			emit(r.Index, b)
		})
		p.tr.end(id)
	}
}

// reset forgets the queue waits measured so far (those of set-up).
func (p *probes) reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.queue = nil
	p.mu.Unlock()
}

// wrapFront spans the coordinator's runner on the fleet's front node.
func (p *probes) wrapFront(run pipeline.Runner) pipeline.Runner {
	if p == nil {
		return run
	}
	return func(ctx context.Context, jobs []pipeline.Job, base int, emit func(int, json.RawMessage)) {
		t0 := time.Now()
		run(ctx, jobs, base, emit)
		p.tr.add("engine.run.front", 0, p.tmplOf[batchKey(jobs)], 0, t0, time.Now())
	}
}

// queueTimes returns the measured runner-entry → first-job-start waits.
func (p *probes) queueTimes() []time.Duration {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.queue...)
}

// registerAll registers each program's source over HTTP, returning the
// IDs the server assigned.
func registerAll(ctx context.Context, c *client, url string, progs []program) error {
	for _, pr := range progs {
		body, _ := json.Marshal(map[string]string{"source": pr.Source, "lang": pr.Lang, "func": pr.Func})
		var info pipeline.ProgramInfo
		if err := c.postJSON(ctx, url+"/v1/programs", body, &info); err != nil {
			return fmt.Errorf("registering %s/%s: %w", pr.Lang, pr.Func, err)
		}
		if want := pipeline.SourceID(pr.Source); info.ID != want {
			return fmt.Errorf("registered %s as %s, want %s", pr.Func, info.ID, want)
		}
	}
	return nil
}

// warm submits one batch of single-evaluation jobs, one per program,
// and waits for it, so every program's module and function are
// resident and the HTTP and engine paths have run once.
func warm(ctx context.Context, c *client, url string, progs []program, inline bool) error {
	var jobs []pipeline.V1Job
	for _, pr := range progs {
		vj := pipeline.V1Job{Func: pr.Func, Spec: analysisSpecWarm()}
		if inline {
			vj.Source = pr.Source
			if pr.Lang == "go" {
				vj.Lang = "go"
			}
		} else {
			vj.Program = pipeline.SourceID(pr.Source)
		}
		jobs = append(jobs, vj)
	}
	body, _ := json.Marshal(submission{Jobs: jobs})
	id, code, err := c.submit(ctx, url, body)
	if err != nil {
		return fmt.Errorf("warm-up submit (HTTP %d): %w", code, err)
	}
	res, _, err := c.follow(ctx, url, id)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, r := range res {
		if bytes.Contains(r, []byte(`"error"`)) {
			return fmt.Errorf("warm-up job failed: %s", r)
		}
	}
	return nil
}
