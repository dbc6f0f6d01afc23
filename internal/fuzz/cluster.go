package fuzz

// This file is the dead-worker oracle: a campaign that runs a
// generated workload to completion on a single node (the golden run),
// then replays it through a coordinator over an in-process fpserve
// fleet, kills the busiest worker mid-batch, and requires every job to
// reach a terminal state on the survivors with results byte-identical
// (modulo pipeline.NormalizeDurations) to the uninterrupted run — the
// distributed analogue of the crash-recovery campaign in crash.go.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
)

// ClusterOptions configures a dead-worker campaign.
type ClusterOptions struct {
	// Workers is the fleet size; 0 selects 2. One worker is killed
	// mid-batch, so 2 is the minimum that leaves a survivor.
	Workers int
	// Seed derives the workload; a campaign is fully reproducible from
	// (Seed, Workers, Programs).
	Seed int64
	// Programs is the number of generated programs (one job batch
	// each); 0 selects 4.
	Programs int
	// MaxDims cycles entry arity over 1..MaxDims; 0 selects 3.
	MaxDims int
	// Evals is the per-analysis weak-distance budget; 0 selects 120.
	Evals int
	// Analyses restricts the per-program spec list; empty selects the
	// crash campaign's cheap deterministic trio.
	Analyses []string
	// Tamper corrupts one golden expectation before comparing: the
	// self-test proving the oracle detects divergent fleet runs.
	Tamper bool
	// Logf, when non-nil, receives the coordinator's operational log.
	Logf func(format string, args ...any)
}

func (o ClusterOptions) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 2
}

func (o ClusterOptions) programs() int {
	if o.Programs > 0 {
		return o.Programs
	}
	return 4
}

func (o ClusterOptions) evals() int {
	if o.Evals > 0 {
		return o.Evals
	}
	return 120
}

// ClusterResult is the outcome of a dead-worker campaign.
type ClusterResult struct {
	// Workers is the fleet size; Jobs the workload's batch count.
	Workers int
	Jobs    int
	// Requeued counts jobs the coordinator moved off the killed worker;
	// Victim names it.
	Requeued int64
	Victim   string
	// Violations are all oracle failures, in discovery order.
	Violations []Violation
}

// Ok reports a clean campaign.
func (r *ClusterResult) Ok() bool { return len(r.Violations) == 0 }

// Summary is a one-line outcome.
func (r *ClusterResult) Summary() string {
	return fmt.Sprintf("%d-worker fleet over %d batches, killed %s mid-batch (%d jobs requeued): %d violations",
		r.Workers, r.Jobs, r.Victim, r.Requeued, len(r.Violations))
}

// clusterV builds a cluster-layer violation.
func clusterV(format string, args ...any) Violation {
	return Violation{Layer: "cluster", Detail: fmt.Sprintf(format, args...)}
}

// clusterWorkload is the crash campaign's workload shape: one job
// batch per generated program, specs drawn from the (seed, index)
// contract the differential campaigns use.
func clusterWorkload(seed int64, programs, maxDims, evals int, analyses []string) [][]pipeline.Job {
	if len(analyses) == 0 {
		analyses = []string{"coverage", "overflow", "xsat"}
	}
	var batches [][]pipeline.Job
	for i := 0; i < programs; i++ {
		src, _, _, rng := generateProgram(seed, i, maxDims)
		specs := analysisSpecs(src, rng, progSeed(seed, i),
			Options{Evals: evals, Analyses: analyses})
		var jobs []pipeline.Job
		for _, spec := range specs {
			job := pipeline.Job{Spec: spec}
			if spec.Formula == "" {
				job.Source = src
				job.Func = "f"
			}
			jobs = append(jobs, job)
		}
		batches = append(batches, jobs)
	}
	return batches
}

// followBatches submits every batch and follows each to a terminal
// state, returning the normalized results in submission order.
func followBatches(eng *pipeline.JobEngine, batches [][]pipeline.Job, vf func(format string, args ...any) Violation) ([][]string, []Violation) {
	var vs []Violation
	recs := make([]*pipeline.JobRecord, 0, len(batches))
	for i, jobs := range batches {
		rec, err := eng.Submit(jobs, 0)
		if err != nil {
			vs = append(vs, vf("submit %d: %v", i, err))
			recs = append(recs, nil)
			continue
		}
		recs = append(recs, rec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	out := make([][]string, len(recs))
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		var got []string
		status := pipeline.FollowJob(ctx, rec, func(b []byte) {
			got = append(got, string(pipeline.NormalizeDurations(b)))
		})
		if status != pipeline.JobCompleted {
			vs = append(vs, vf("batch %d ended %q (%s), want completed",
				i, status, rec.Header().Reason))
		}
		out[i] = got
	}
	return out, vs
}

// RunCluster executes a dead-worker campaign.
func RunCluster(o ClusterOptions) *ClusterResult {
	res := &ClusterResult{Workers: o.workers()}
	batches := clusterWorkload(o.Seed, o.programs(), o.MaxDims, o.evals(), o.Analyses)
	res.Jobs = len(batches)

	// Golden run: the workload start to finish on one local node. Its
	// results are the byte-identity expectation for the fleet run.
	golden := pipeline.NewJobEngine(pipeline.New(0))
	expect, vs := followBatches(golden, batches, clusterV)
	res.Violations = append(res.Violations, vs...)
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	golden.Shutdown(sctx)
	scancel()
	if len(res.Violations) > 0 {
		return res
	}
	if o.Tamper {
		for i := range expect {
			if len(expect[i]) > 0 {
				expect[i][0] += `{"tampered":true}`
			}
		}
	}

	// The fleet: in-process fpserve workers (full /v1 surface over
	// HTTP), one pipeline lane each so batches stay in flight long
	// enough to kill a worker under them.
	type node struct {
		srv *pipeline.Server
		ts  *httptest.Server
		ded bool
	}
	nodes := make([]*node, o.workers())
	addrs := make([]string, o.workers())
	for i := range nodes {
		srv := pipeline.NewServer(1)
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &node{srv: srv, ts: ts}
		addrs[i] = ts.URL
	}
	defer func() {
		for _, n := range nodes {
			if !n.ded {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				n.srv.Engine.Shutdown(ctx)
				cancel()
				n.ts.Close()
			}
		}
	}()

	coord, err := cluster.New(cluster.Config{
		Workers:    addrs,
		ProbeEvery: 50 * time.Millisecond,
		DeadAfter:  2,
		Seed:       o.Seed,
		Logf:       o.Logf,
	})
	if err != nil {
		res.Violations = append(res.Violations, clusterV("coordinator: %v", err))
		return res
	}
	coord.Start()
	defer coord.Close()
	eng := pipeline.NewJobEngine(pipeline.New(1))
	eng.Runner = coord.Run
	eng.AdmitHook = coord.Admit
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		eng.Shutdown(ctx)
		cancel()
	}()

	// Kill the busiest worker as soon as the dispatcher has loaded the
	// fleet: its unfinished jobs must requeue onto survivors. The
	// watcher races submission on purpose — dispatch assigns the whole
	// batch up front, so in-flight counts peak before results drain.
	killed := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var victim *node
			var load int64
			for i, st := range coord.Stats().Workers {
				if st.Alive && st.InFlight > load {
					victim, load = nodes[i], st.InFlight
				}
			}
			if victim != nil && load > 0 {
				name := victim.ts.Listener.Addr().String()
				victim.ded = true
				victim.ts.CloseClientConnections()
				victim.ts.Close()
				victim.srv.Engine.Kill()
				killed <- name
				return
			}
			time.Sleep(time.Millisecond)
		}
		killed <- ""
	}()

	got, vs := followBatches(eng, batches, clusterV)
	res.Violations = append(res.Violations, vs...)
	res.Victim = <-killed
	if res.Victim == "" {
		res.Violations = append(res.Violations,
			clusterV("no worker accumulated in-flight jobs to kill"))
	}

	st := coord.Stats()
	res.Requeued = st.Requeued
	if res.Victim != "" && st.Requeued == 0 {
		res.Violations = append(res.Violations,
			clusterV("killed %s mid-batch but nothing was requeued", res.Victim))
	}
	for _, w := range st.Workers {
		if w.Name == res.Victim && w.Alive {
			res.Violations = append(res.Violations,
				clusterV("killed worker %s still marked alive", w.Name))
		}
	}
	for i := range expect {
		if len(got) <= i {
			break
		}
		if len(got[i]) != len(expect[i]) {
			res.Violations = append(res.Violations,
				clusterV("batch %d: fleet run returned %d results, single node %d",
					i, len(got[i]), len(expect[i])))
			continue
		}
		for j := range expect[i] {
			if got[i][j] != expect[i][j] {
				res.Violations = append(res.Violations,
					clusterV("batch %d result %d differs from the single-node run:\n%s\nvs\n%s",
						i, j, expect[i][j], got[i][j]))
				break
			}
		}
	}
	return res
}
