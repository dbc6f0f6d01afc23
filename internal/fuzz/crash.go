package fuzz

// This file is the crash-recovery oracle: a campaign that runs a
// generated workload to completion under a durable job engine (the
// golden run), then repeatedly simulates a SIGKILL by truncating the
// golden journal at a random byte offset, recovers a fresh engine from
// the truncated prefix, and requires every job the journal had accepted
// to reach a terminal state with results byte-identical (modulo
// pipeline.NormalizeDurations) to the uninterrupted run. Offsets cut
// frames mid-record (the torn-final-record case) and between records
// (the SIGKILL-between-records case) alike; optional failpoints add
// transient fsync failures and worker panics on top.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/journal"
	"repro/internal/pipeline"
)

// CrashOptions configures a crash-recovery campaign.
type CrashOptions struct {
	// Rounds is the number of crash offsets exercised; 0 selects 6.
	Rounds int
	// Seed derives the workload and every crash offset; a campaign is
	// fully reproducible from (Seed, Rounds, Programs).
	Seed int64
	// Programs is the number of generated programs (one journaled job
	// batch each); 0 selects 3.
	Programs int
	// MaxDims cycles entry arity over 1..MaxDims; 0 selects 3.
	MaxDims int
	// Evals is the per-analysis weak-distance budget; 0 selects 60.
	Evals int
	// Analyses restricts the per-program spec list; empty selects a
	// cheap deterministic trio (coverage, overflow, xsat).
	Analyses []string
	// Workers bounds the pipeline worker pool (0 = all CPUs); it never
	// changes results.
	Workers int
	// PanicJobs injects a deterministic panic into a content-keyed
	// subset of jobs (roughly one in PanicJobs), in the golden run and
	// every recovery alike — exercising the per-job recover boundary
	// under crash recovery. 0 disables.
	PanicJobs int
	// FaultProb injects transient fsync failures with this probability
	// into every recovery round's journal — exercising the engine's
	// retry/backoff path. 0 disables.
	FaultProb float64
	// Tamper corrupts one golden expectation before comparing: the
	// self-test proving the oracle detects divergent recoveries.
	Tamper bool
	// Dir is the scratch directory for journals (emptied per round);
	// empty uses a temp dir removed at the end.
	Dir string
	// Progress, when non-nil, receives (rounds done, total).
	Progress func(done, total int)
}

func (o CrashOptions) rounds() int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	return 6
}

func (o CrashOptions) programs() int {
	if o.Programs > 0 {
		return o.Programs
	}
	return 3
}

func (o CrashOptions) evals() int {
	if o.Evals > 0 {
		return o.Evals
	}
	return 60
}

func (o CrashOptions) analyses() []string {
	if len(o.Analyses) > 0 {
		return o.Analyses
	}
	return []string{"coverage", "overflow", "xsat"}
}

// newPipeline builds the worker pool for one run, with the
// content-keyed panic failpoint installed when requested. Keying on
// the spec (not the batch index) matters: a requeued job re-executes
// as a suffix batch, so positional injection would fire on different
// jobs than the golden run's.
func (o CrashOptions) newPipeline() *pipeline.Pipeline {
	pl := pipeline.New(o.Workers)
	if n := int64(o.PanicJobs); n > 0 {
		pl.InjectPanic = func(idx int, j pipeline.Job) string {
			if (j.Spec.Seed+int64(len(j.Spec.Analysis)))%n == 0 {
				return fmt.Sprintf("injected crash-campaign panic (%s, seed %d)",
					j.Spec.Analysis, j.Spec.Seed)
			}
			return ""
		}
	}
	return pl
}

// CrashResult is the outcome of a crash-recovery campaign.
type CrashResult struct {
	// Rounds is the number of crash offsets exercised; Jobs the golden
	// workload's batch count.
	Rounds int
	Jobs   int
	// Recovered counts jobs rebuilt from truncated journals across all
	// rounds; Requeued the subset that had to re-execute.
	Recovered int
	Requeued  int
	// Violations are all oracle failures, in discovery order.
	Violations []Violation
}

// Ok reports a clean campaign.
func (r *CrashResult) Ok() bool { return len(r.Violations) == 0 }

// Summary is a one-line outcome.
func (r *CrashResult) Summary() string {
	return fmt.Sprintf("%d crash rounds over %d jobs, %d recovered (%d requeued): %d violations",
		r.Rounds, r.Jobs, r.Recovered, r.Requeued, len(r.Violations))
}

// crashV builds a crash-layer violation.
func crashV(format string, args ...any) Violation {
	return Violation{Layer: "crash", Detail: fmt.Sprintf(format, args...)}
}

// journalOptions is the campaign's journal configuration: a short
// group-commit interval (the campaign is latency-sensitive, not
// throughput-sensitive) and no compaction, so the golden log is one
// contiguous record stream that truncation can cut anywhere.
func journalOptions() journal.Options {
	return journal.Options{SyncEvery: time.Millisecond, CompactBytes: -1}
}

// RunCrash executes a crash-recovery campaign.
func RunCrash(o CrashOptions) *CrashResult {
	res := &CrashResult{}
	dir := o.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fpfuzz-crash-*")
		if err != nil {
			res.Violations = append(res.Violations, crashV("scratch dir: %v", err))
			return res
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The workload: one job batch per generated program, specs drawn
	// from the same (seed, index) contract the differential campaigns
	// use.
	var batches [][]pipeline.Job
	for i := 0; i < o.programs(); i++ {
		src, _, _, rng := generateProgram(o.Seed, i, o.MaxDims)
		specs := analysisSpecs(src, rng, progSeed(o.Seed, i),
			Options{Evals: o.evals(), Analyses: o.analyses()})
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
	res.Jobs = len(batches)

	// Golden run: the workload start to finish under a durable engine,
	// ending in a graceful shutdown. Its journal is the byte stream the
	// rounds truncate; its results are the byte-identity expectation.
	expect, logBytes, vs := o.goldenRun(filepath.Join(dir, "golden"), batches)
	res.Violations = append(res.Violations, vs...)
	if len(logBytes) == 0 || len(res.Violations) > 0 {
		return res
	}
	if o.Tamper {
		// Self-test: a corrupted expectation must surface as a
		// violation. Every job is tampered — picking one at random (map
		// iteration order) made the self-test flaky, since a short
		// truncation prefix can leave the chosen job out of every
		// round's comparison set.
		for id := range expect {
			if len(expect[id]) > 0 {
				expect[id][0] += `{"tampered":true}`
			}
		}
	}

	// floor is the end of the first job record (a batch's submit): a
	// shorter prefix recovers no job and so compares nothing. The first
	// round always cuts at or past it, so every campaign recovers a job;
	// under Tamper every round does, so the self-test always compares a
	// tampered expectation.
	floor := 0
	recs, ends := journal.Frames(logBytes)
	for i, rec := range recs {
		if rec.Job != "" {
			floor = int(ends[i])
			break
		}
	}
	rng := rand.New(rand.NewSource(o.Seed ^ 0x6372617368)) // "crash"
	for r := 0; r < o.rounds(); r++ {
		lo := 1
		if r == 0 || o.Tamper {
			lo = max(floor, 1)
		}
		off := lo + rng.Intn(len(logBytes)-lo+1)
		res.Rounds++
		res.Violations = append(res.Violations,
			o.recoverRound(dir, r, logBytes[:off], expect, res)...)
		if o.Progress != nil {
			o.Progress(r+1, o.rounds())
		}
	}
	return res
}

// goldenRun executes every batch to completion under a durable engine
// and returns the normalized per-job result expectation plus the raw
// journal bytes.
func (o CrashOptions) goldenRun(dir string, batches [][]pipeline.Job) (map[string][]string, []byte, []Violation) {
	store, err := pipeline.OpenStore(dir, journalOptions())
	if err != nil {
		return nil, nil, []Violation{crashV("golden journal: %v", err)}
	}
	eng := pipeline.NewJobEngine(o.newPipeline())
	eng.Store = store

	var vs []Violation
	var order []string
	for i, jobs := range batches {
		rec, err := eng.Submit(jobs, 0)
		if err != nil {
			vs = append(vs, crashV("golden submit %d: %v", i, err))
			continue
		}
		order = append(order, rec.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	expect := map[string][]string{}
	for _, id := range order {
		rec, ok := eng.Get(id)
		if !ok {
			vs = append(vs, crashV("golden job %s vanished", id))
			continue
		}
		var got []string
		status := pipeline.FollowJob(ctx, rec, func(res []byte) {
			got = append(got, string(pipeline.NormalizeDurations(res)))
		})
		if status != pipeline.JobCompleted {
			vs = append(vs, crashV("golden job %s ended %q, want completed", id, status))
		}
		expect[id] = got
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := eng.Shutdown(sctx); err != nil {
		vs = append(vs, crashV("golden shutdown: %v", err))
	}
	if err := store.Close(); err != nil {
		vs = append(vs, crashV("golden close: %v", err))
	}
	logBytes, err := os.ReadFile(journal.LogPath(dir))
	if err != nil {
		vs = append(vs, crashV("golden log: %v", err))
	}
	return expect, logBytes, vs
}

// recoverRound simulates one crash: the golden journal truncated to
// prefix stands in for the log a SIGKILLed process left behind. A fresh
// engine recovers from it (under injected fsync faults, when
// configured) and every job the truncated journal had accepted must
// reach a terminal state with the golden results.
func (o CrashOptions) recoverRound(dir string, round int, prefix []byte, expect map[string][]string, res *CrashResult) []Violation {
	var vs []Violation
	rd := filepath.Join(dir, fmt.Sprintf("round-%03d", round))
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return []Violation{crashV("round %d: %v", round, err)}
	}
	defer os.RemoveAll(rd)
	if err := os.WriteFile(journal.LogPath(rd), prefix, 0o644); err != nil {
		return []Violation{crashV("round %d: %v", round, err)}
	}

	jo := journalOptions()
	if o.FaultProb > 0 {
		fp := journal.NewFailpoints(o.Seed + int64(round))
		fp.SyncFailProb = o.FaultProb
		jo.Fail = fp
	}
	store, err := pipeline.OpenStore(rd, jo)
	if err != nil {
		return []Violation{crashV("round %d: reopening truncated journal (offset %d): %v",
			round, len(prefix), err)}
	}
	defer store.Close()
	recovered := store.Recovered()
	eng := pipeline.NewJobEngine(o.newPipeline())
	eng.Store = store
	restored, requeued := eng.Recover(recovered)
	res.Recovered += restored
	res.Requeued += requeued

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, rj := range recovered {
		want, known := expect[rj.ID]
		if !known {
			vs = append(vs, crashV("round %d: journal recovered unknown job %s", round, rj.ID))
			continue
		}
		rec, ok := eng.Get(rj.ID)
		if !ok {
			vs = append(vs, crashV("round %d: accepted job %s missing after recovery", round, rj.ID))
			continue
		}
		var got []string
		status := pipeline.FollowJob(ctx, rec, func(b []byte) {
			got = append(got, string(pipeline.NormalizeDurations(b)))
		})
		if status != pipeline.JobCompleted {
			vs = append(vs, crashV("round %d: job %s ended %q (%s), want completed",
				round, rj.ID, status, rec.Header().Reason))
			continue
		}
		if len(got) != len(want) {
			vs = append(vs, crashV("round %d: job %s recovered %d results, golden run had %d",
				round, rj.ID, len(got), len(want)))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				vs = append(vs, crashV("round %d: job %s result %d differs from the uninterrupted run:\n%s\nvs\n%s",
					round, rj.ID, i, want[i], got[i]))
				break
			}
		}
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	eng.Shutdown(sctx)
	return vs
}
