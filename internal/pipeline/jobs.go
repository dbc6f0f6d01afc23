package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// JobStatus is the lifecycle state of a submitted job batch.
type JobStatus string

// Job lifecycle states. There is deliberately no "queued": submission
// hands the batch to the shared worker pool immediately (the pool's
// semaphore is the queue), so a job is running until it is finished.
const (
	JobRunning   JobStatus = "running"
	JobCompleted JobStatus = "completed"
	JobCanceled  JobStatus = "canceled"
)

// Engine defaults.
const (
	// DefaultMaxTrackedJobs bounds the job table.
	DefaultMaxTrackedJobs = 256
	// DefaultJobTTL is how long a finished job's results stay
	// retrievable before eviction.
	DefaultJobTTL = 15 * time.Minute
	// DefaultRetryAfter is the backoff hint sent with load-shedding
	// refusals (429 Retry-After).
	DefaultRetryAfter = time.Second
)

// Engine errors, surfaced by Submit.
var (
	// ErrShuttingDown: the engine no longer accepts jobs.
	ErrShuttingDown = errors.New("server is shutting down")
	// ErrJobTableFull: the table holds MaxTrackedJobs unfinished jobs.
	// Non-terminal jobs are never evicted for capacity — the submission
	// is refused (429 + Retry-After on the /v1 surface) instead of
	// silently dropping tracked state.
	ErrJobTableFull = errors.New("job table full: all tracked jobs are still running")
)

// ErrOverloaded is the admission-control refusal: accepting the batch
// would push in-flight work or journal backlog past a watermark. The
// /v1 surface renders it as 429 problem+json with a Retry-After hint.
type ErrOverloaded struct {
	// Reason names the crossed watermark.
	Reason string
	// RetryAfter is the client backoff hint.
	RetryAfter time.Duration
}

func (e ErrOverloaded) Error() string { return "overloaded: " + e.Reason }

// Cancellation causes, readable in JobView.Reason.
var (
	errCanceledByClient = errors.New("canceled by client")
	errShutdown         = errors.New("server shutdown")
)

// JobRecord tracks one submitted batch: its results as they stream in,
// its lifecycle state, and the cancel handle that makes DELETE and
// shutdown land inside the minimizers within one objective evaluation.
// Results are held in wire form (MarshalResult bytes) — the same bytes
// the journal persists, so a recovered record serves exactly what the
// pre-crash one did.
type JobRecord struct {
	// ID is the engine-assigned job identifier (stable across
	// crash-recovery restarts).
	ID string
	// Created is the submission time.
	Created time.Time
	// Total is the number of jobs in the batch.
	Total int

	cancel context.CancelCauseFunc

	mu       sync.Mutex
	results  []json.RawMessage
	status   JobStatus
	reason   string
	finished time.Time
	changed  chan struct{} // closed on every append and on finish
	subs     int           // live followers; pins the record against eviction
}

// subscribe pins the record against TTL and capacity eviction for the
// lifetime of one follower: a subscriber mid-replay must be able to
// re-poll and reconnect by ID until it has seen the terminal event, so
// the job may not vanish from the table under it.
func (rec *JobRecord) subscribe() {
	rec.mu.Lock()
	rec.subs++
	rec.mu.Unlock()
}

func (rec *JobRecord) unsubscribe() {
	rec.mu.Lock()
	rec.subs--
	rec.mu.Unlock()
}

// append records one wire-form result and wakes every waiter.
func (rec *JobRecord) append(raw json.RawMessage) {
	rec.mu.Lock()
	rec.results = append(rec.results, raw)
	if rec.status == JobRunning {
		close(rec.changed)
		rec.changed = make(chan struct{})
	}
	rec.mu.Unlock()
}

// finish seals the record. The changed channel stays closed forever, so
// late subscribers wake immediately.
func (rec *JobRecord) finish(cause error) {
	rec.mu.Lock()
	if cause != nil {
		rec.status = JobCanceled
		rec.reason = cause.Error()
	} else {
		rec.status = JobCompleted
	}
	rec.finished = time.Now()
	close(rec.changed)
	rec.mu.Unlock()
}

// terminal snapshots the sealed state for the journal.
func (rec *JobRecord) terminal() (JobStatus, string, time.Time) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.status, rec.reason, rec.finished
}

// next returns the results from index from on, the current status, and
// a channel that signals the next change (closed already if the record
// is finished).
func (rec *JobRecord) next(from int) ([]json.RawMessage, JobStatus, <-chan struct{}) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []json.RawMessage
	if from < len(rec.results) {
		out = append(out, rec.results[from:]...)
	}
	return out, rec.status, rec.changed
}

// JobView is the wire snapshot of a job record: status plus one page of
// results.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Jobs is the batch size; Completed the number of results so far.
	Jobs      int        `json:"jobs"`
	Completed int        `json:"completed"`
	Created   time.Time  `json:"created"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Reason explains a cancellation ("canceled by client", "context
	// deadline exceeded", "server shutdown", ...).
	Reason string `json:"reason,omitempty"`
	// Offset/Results are the requested result page, each result in wire
	// form (MarshalResult, which degrades non-JSON-serializable reports
	// to summary-only instead of failing the response); NextOffset is
	// set when more results exist beyond the page.
	Offset     int               `json:"offset"`
	Results    []json.RawMessage `json:"results"`
	NextOffset *int              `json:"nextOffset,omitempty"`
}

// Header snapshots the record without any results (Results is nil).
// Listing and event surfaces use it so a large result set is never
// copied just to be thrown away.
func (rec *JobRecord) Header() JobView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := JobView{
		ID:        rec.ID,
		Status:    rec.status,
		Jobs:      rec.Total,
		Completed: len(rec.results),
		Created:   rec.Created,
		Reason:    rec.reason,
	}
	if rec.status != JobRunning {
		t := rec.finished
		v.Finished = &t
	}
	return v
}

// View snapshots the record with the result page [offset, offset+limit).
// limit <= 0 means no limit.
func (rec *JobRecord) View(offset, limit int) JobView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := JobView{
		ID:        rec.ID,
		Status:    rec.status,
		Jobs:      rec.Total,
		Completed: len(rec.results),
		Created:   rec.Created,
		Reason:    rec.reason,
		Offset:    offset,
		Results:   []json.RawMessage{},
	}
	if rec.status != JobRunning {
		t := rec.finished
		v.Finished = &t
	}
	if offset < 0 {
		offset = 0
		v.Offset = 0
	}
	end := offset
	if offset < len(rec.results) {
		end = len(rec.results)
		if limit > 0 && offset+limit < end {
			end = offset + limit
		}
		v.Results = append(v.Results, rec.results[offset:end]...)
	}
	// NextOffset is the resume cursor: present whenever more results
	// exist now, or may yet land (the job is still running). On a
	// running job it is always set and monotone — an offset past the
	// current count yields an empty page whose cursor holds the client's
	// place — so a poller never loses its position to an empty page and
	// never mistakes "caught up" for "complete".
	if end < len(rec.results) || rec.status == JobRunning {
		next := end
		v.NextOffset = &next
	}
	return v
}

// FollowJob delivers every result of rec to emit in order — existing
// results first (late subscribers replay the full sequence), then new
// ones as they land — until the record finishes or ctx fires. Results
// are in wire form (MarshalResult bytes). It returns the record's final
// status, or JobRunning when ctx ended the subscription first. The /v1
// SSE endpoint follows through here, as do in-process consumers of the
// engine.
func FollowJob(ctx context.Context, rec *JobRecord, emit func(result []byte)) JobStatus {
	return FollowJobHeartbeat(ctx, rec, 0, emit, nil)
}

// FollowJobHeartbeat is FollowJob with a liveness pulse: whenever
// heartbeat elapses with the job still running, beat is called — the
// SSE surface turns it into heartbeat events so a subscriber can tell a
// stalled-but-alive server from a dead connection. heartbeat <= 0
// disables the pulse.
func FollowJobHeartbeat(ctx context.Context, rec *JobRecord, heartbeat time.Duration, emit func(result []byte), beat func()) JobStatus {
	rec.subscribe()
	defer rec.unsubscribe()
	offset := 0
	var pulse *time.Timer
	var pulseC <-chan time.Time
	if heartbeat > 0 && beat != nil {
		pulse = time.NewTimer(heartbeat)
		pulseC = pulse.C
		defer pulse.Stop()
	}
	for {
		results, status, changed := rec.next(offset)
		for _, res := range results {
			emit(res)
		}
		offset += len(results)
		if len(results) > 0 {
			// Result traffic is liveness: push the next pulse a full
			// heartbeat out, draining a tick that fired while emit ran —
			// otherwise the stale tick delivers a spurious heartbeat the
			// instant the stream goes quiet.
			if pulse != nil {
				if !pulse.Stop() {
					select {
					case <-pulse.C:
					default:
					}
				}
				pulse.Reset(heartbeat)
			}
			continue // drain fully before blocking
		}
		if status != JobRunning {
			return status
		}
		select {
		case <-changed:
		case <-pulseC:
			beat()
			pulse.Reset(heartbeat)
		case <-ctx.Done():
			return JobRunning
		}
	}
}

// Runner executes one batch — or, on crash recovery, the suffix of one
// — and emits each result as wire bytes (MarshalResult form) tagged
// with its final batch index. base is the batch position of jobs[0]:
// emitted indices are base+i, and emission must be in batch order. The
// contract is the batch-evaluation contract: exactly one result per
// job, byte-identical to a local run. The engine's default runner is
// the local pipeline; fpserve's coordinator mode installs a fleet
// dispatcher here, and everything downstream — journal, job table,
// pagination, SSE — is unchanged, consuming the emitted bytes no
// matter which node produced them.
type Runner func(ctx context.Context, jobs []Job, base int, emit func(index int, result json.RawMessage))

// EngineStats is the job engine's counter snapshot.
type EngineStats struct {
	// Submitted counts accepted batches; Canceled those that ended
	// cancelled; Active those still running; Tracked the table size.
	Submitted int64 `json:"submitted"`
	Canceled  int64 `json:"canceled"`
	Active    int   `json:"active"`
	Tracked   int   `json:"tracked"`
	// InFlight counts individual jobs accepted but not yet finished —
	// the admission-control watermark input.
	InFlight int64 `json:"inFlight"`
	// Restored/Requeued count boot-time recovery: jobs rebuilt from the
	// journal, and the subset re-executed because the crash caught them
	// running.
	Restored int64 `json:"restored,omitempty"`
	Requeued int64 `json:"requeued,omitempty"`
	// Shed counts submissions refused by admission control.
	Shed int64 `json:"shed,omitempty"`
	// Panics counts jobs that hit the per-job recover boundary.
	Panics int64 `json:"panics,omitempty"`
}

// JobEngine runs submitted batches asynchronously over one shared
// pipeline and tracks them in a bounded, TTL-evicted table. It is the
// single execution path of fpserve: every /v1 job is submitted here,
// so all of them share the worker pool, the module cache, and the
// cancellation plumbing.
//
// With Store set the table is durable: every lifecycle transition is
// journaled (submission durably, before the caller sees the job ID),
// and Recover rebuilds the table — requeueing interrupted jobs — after
// a crash.
type JobEngine struct {
	// MaxTrackedJobs bounds the job table (0 = DefaultMaxTrackedJobs).
	MaxTrackedJobs int
	// TTL is the retention of finished jobs (0 = DefaultJobTTL).
	TTL time.Duration
	// Store, when non-nil, is the durable journal hook. Set it before
	// the first submission.
	Store JobStore
	// MaxInFlight is the admission-control watermark on individual
	// accepted-but-unfinished jobs across all batches (0 = unlimited):
	// a submission that would cross it is refused with ErrOverloaded.
	MaxInFlight int
	// MaxStoreBacklog is the admission-control watermark on unsynced
	// journal bytes (0 = DefaultStoreBacklog when a Store is set).
	MaxStoreBacklog int64
	// RetryAfter is the backoff hint attached to load-shedding refusals
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration
	// Runner, when non-nil, replaces local pipeline execution (see
	// Runner). Set it before the first submission or recovery.
	Runner Runner
	// AdmitHook, when non-nil, is consulted by admission control before
	// the local watermarks; an error (conventionally ErrOverloaded)
	// refuses the submission. The coordinator aggregates fleet-level
	// backpressure — worker 429/Retry-After signals, a dead fleet —
	// into this hook.
	AdmitHook func(jobs int) error
	// Logf, when non-nil, receives operational log lines (store append
	// failures that exhausted their retries, recovery notes).
	Logf func(format string, args ...any)

	pl      *Pipeline
	baseCtx context.Context
	stop    context.CancelFunc

	mu        sync.Mutex
	records   map[string]*JobRecord
	order     []string // insertion order, for eviction scans
	seq       int64
	accepting bool
	wg        sync.WaitGroup

	submitted atomic.Int64
	canceled  atomic.Int64
	running   atomic.Int64
	inflight  atomic.Int64
	restored  atomic.Int64
	requeued  atomic.Int64
	shed      atomic.Int64
}

// DefaultStoreBacklog is the journal-pressure watermark applied when a
// Store is mounted and MaxStoreBacklog is unset.
const DefaultStoreBacklog int64 = 8 << 20

// NewJobEngine returns an accepting engine over pl.
func NewJobEngine(pl *Pipeline) *JobEngine {
	ctx, cancel := context.WithCancel(context.Background())
	return &JobEngine{
		pl:        pl,
		baseCtx:   ctx,
		stop:      cancel,
		records:   map[string]*JobRecord{},
		accepting: true,
	}
}

func (e *JobEngine) maxTracked() int {
	if e.MaxTrackedJobs > 0 {
		return e.MaxTrackedJobs
	}
	return DefaultMaxTrackedJobs
}

func (e *JobEngine) ttl() time.Duration {
	if e.TTL > 0 {
		return e.TTL
	}
	return DefaultJobTTL
}

func (e *JobEngine) retryAfter() time.Duration {
	if e.RetryAfter > 0 {
		return e.RetryAfter
	}
	return DefaultRetryAfter
}

func (e *JobEngine) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// storeOp runs a journal append with capped-exponential-backoff retry,
// classifying via Retryable: transient journal failures (I/O pressure,
// injected fsync faults) are retried; permanent ones surface at once.
func (e *JobEngine) storeOp(id, op string, fn func() error) error {
	if e.Store == nil {
		return nil
	}
	return Retry(e.baseCtx, op+" "+id, storeBackoff(id), fn)
}

// admitLocked applies the load-shedding watermarks. Callers hold e.mu.
func (e *JobEngine) admitLocked(n int) error {
	if e.AdmitHook != nil {
		if err := e.AdmitHook(n); err != nil {
			return err
		}
	}
	if max := e.MaxInFlight; max > 0 {
		if inflight := e.inflight.Load(); inflight+int64(n) > int64(max) {
			return ErrOverloaded{
				Reason: fmt.Sprintf("%d jobs in flight + %d submitted exceeds the in-flight watermark of %d",
					inflight, n, max),
				RetryAfter: e.retryAfter(),
			}
		}
	}
	if e.Store != nil {
		max := e.MaxStoreBacklog
		if max == 0 {
			max = DefaultStoreBacklog
		}
		if max > 0 {
			if backlog := e.Store.Backlog(); backlog > max {
				return ErrOverloaded{
					Reason: fmt.Sprintf("journal backlog of %d bytes exceeds the watermark of %d",
						backlog, max),
					RetryAfter: e.retryAfter(),
				}
			}
		}
	}
	return nil
}

// Submit accepts a batch, starts it on the shared pipeline, and tracks
// it in the job table (so /v1 clients can poll, stream, and cancel it
// by ID), returning immediately with its record.
//
// The job's context is a child of the engine (so shutdown cancels it),
// bounded by timeout when positive. Nothing ties it to the submitting
// request: a /v1 job outlives its submission by design.
//
// With a Store mounted, Submit returns only after the submission record
// is durable: an accepted job (202) survives any later crash.
func (e *JobEngine) Submit(jobs []Job, timeout time.Duration) (*JobRecord, error) {
	e.mu.Lock()
	if !e.accepting {
		e.mu.Unlock()
		return nil, ErrShuttingDown
	}
	e.sweepLocked(time.Now())
	if err := e.admitLocked(len(jobs)); err != nil {
		e.mu.Unlock()
		e.shed.Add(1)
		return nil, err
	}
	if len(e.records) >= e.maxTracked() {
		// TTL didn't free a slot: evict the oldest finished job to make
		// room. Non-terminal (running or queued) jobs are never evicted
		// — a table full of them refuses the submission instead.
		if !e.evictOldestFinishedLocked() {
			e.mu.Unlock()
			e.shed.Add(1)
			return nil, ErrJobTableFull
		}
	}
	e.seq++
	ctx, cancelCause := context.WithCancelCause(e.baseCtx)
	rec := &JobRecord{
		ID:      fmt.Sprintf("job-%d", e.seq),
		Created: time.Now(),
		Total:   len(jobs),
		status:  JobRunning,
		changed: make(chan struct{}),
		cancel:  cancelCause,
	}
	e.mu.Unlock()

	// Durability barrier: the submission record must be on disk before
	// the caller sees the job ID. Outside e.mu — an fsync must not
	// stall unrelated reads. Transient journal failures retry with
	// backoff; exhaustion refuses the submission (still Retryable, so
	// the surface answers 503 + Retry-After rather than losing a job it
	// acknowledged).
	if err := e.storeOp(rec.ID, "journal submit", func() error {
		return e.Store.JobSubmitted(rec.ID, jobs, timeout, rec.Created)
	}); err != nil {
		cancelCause(nil)
		return nil, err
	}

	e.mu.Lock()
	if !e.accepting {
		// Shutdown raced the durability barrier. The submit record may
		// already be journaled; seal it there so a reboot does not
		// resurrect a job whose client was refused.
		e.mu.Unlock()
		cancelCause(nil)
		now := time.Now()
		if err := e.storeOp(rec.ID, "journal terminal", func() error {
			return e.Store.JobTerminal(rec.ID, JobCanceled, errShutdown.Error(), now)
		}); err != nil {
			e.logf("fpserve: journal: sealing refused submission %s: %v", rec.ID, err)
		}
		return nil, ErrShuttingDown
	}
	e.records[rec.ID] = rec
	e.order = append(e.order, rec.ID)
	e.wg.Add(1)
	e.mu.Unlock()
	e.submitted.Add(1)
	e.running.Add(1)
	e.inflight.Add(int64(len(jobs)))

	runCtx := ctx
	var cancelTimeout context.CancelFunc = func() {}
	if timeout > 0 {
		runCtx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	e.run(rec, runCtx, cancelCause, cancelTimeout, jobs, 0)
	return rec, nil
}

// run executes (or, for base > 0, resumes at result offset base) rec's
// batch on the shared pipeline, journaling every transition. It owns
// the record's finish. Callers have already incremented wg, running,
// and inflight.
func (e *JobEngine) run(rec *JobRecord, ctx context.Context, cancelCause context.CancelCauseFunc, cancelTimeout context.CancelFunc, jobs []Job, base int) {
	go func() {
		defer e.wg.Done()
		defer e.running.Add(-1)
		if err := e.storeOp(rec.ID, "journal start", func() error {
			return e.Store.JobStarted(rec.ID)
		}); err != nil {
			e.logf("fpserve: journal: start %s: %v", rec.ID, err)
		}
		run := e.Runner
		if run == nil {
			run = e.localRun
		}
		run(ctx, jobs, base, func(index int, raw json.RawMessage) {
			rec.append(raw)
			e.inflight.Add(-1)
			if err := e.storeOp(rec.ID, "journal result", func() error {
				return e.Store.ResultAppended(rec.ID, index, raw)
			}); err != nil {
				e.logf("fpserve: journal: result %s[%d]: %v", rec.ID, index, err)
			}
		})
		var cause error
		if ctx.Err() != nil {
			cause = context.Cause(ctx)
			if cause == nil {
				cause = ctx.Err()
			}
			e.canceled.Add(1)
		}
		rec.finish(cause)
		status, reason, finished := rec.terminal()
		if err := e.storeOp(rec.ID, "journal terminal", func() error {
			return e.Store.JobTerminal(rec.ID, status, reason, finished)
		}); err != nil {
			e.logf("fpserve: journal: terminal %s: %v", rec.ID, err)
		}
		cancelTimeout()
		cancelCause(nil) // release the timer chain
	}()
}

// localRun is the default Runner: the shared worker pool. A resumed
// job re-executes only the suffix beyond its last durable result;
// indices shift back to batch positions so the wire output is
// identical to an uninterrupted run's.
func (e *JobEngine) localRun(ctx context.Context, jobs []Job, base int, emit func(int, json.RawMessage)) {
	e.pl.Stream(ctx, jobs, func(r JobResult) {
		r.Index += base
		emit(r.Index, MarshalResult(r))
	})
}

// Recover rebuilds the job table from a journal replay (see
// DurableStore.Recovered). Terminal jobs are restored read-only with
// their full result sets; jobs the crash caught running are requeued —
// each re-executes only the batch suffix beyond its last durable
// result, under whatever remains of its original deadline. Results are
// content-deterministic, so the combined result set is identical to an
// uninterrupted run's. Call once, before serving.
func (e *JobEngine) Recover(recovered []RecoveredJob) (restored, requeued int) {
	for _, rj := range recovered {
		rj := rj
		e.mu.Lock()
		if !e.accepting {
			e.mu.Unlock()
			break
		}
		if _, ok := e.records[rj.ID]; ok {
			e.mu.Unlock()
			continue // duplicate replay entry
		}
		if n := jobSeq(rj.ID); n > e.seq {
			e.seq = n // never reissue a recovered ID
		}
		ctx, cancelCause := context.WithCancelCause(e.baseCtx)
		rec := &JobRecord{
			ID:      rj.ID,
			Created: rj.Created,
			Total:   len(rj.Jobs),
			results: rj.Results,
			status:  rj.Status,
			reason:  rj.Reason,
			changed: make(chan struct{}),
			cancel:  cancelCause,
		}
		running := rj.Status == JobRunning
		if !running {
			rec.finished = rj.Finished
			close(rec.changed)
		}
		e.records[rec.ID] = rec
		e.order = append(e.order, rec.ID)
		if running {
			e.wg.Add(1)
		}
		e.mu.Unlock()

		restored++
		e.restored.Add(1)
		if !running {
			cancelCause(nil)
			continue
		}
		requeued++
		e.requeued.Add(1)
		e.running.Add(1)

		base := len(rj.Results)
		remaining := rj.Jobs[base:]
		e.inflight.Add(int64(len(remaining)))
		runCtx := ctx
		var cancelTimeout context.CancelFunc = func() {}
		if rj.Timeout > 0 {
			// The deadline is absolute: a job submitted with a 30s
			// timeout 25s before the crash has 5s left, and one past
			// its deadline cancels immediately (keeping its durable
			// results), exactly as the uninterrupted timeline would.
			runCtx, cancelTimeout = context.WithDeadline(ctx, rj.Created.Add(rj.Timeout))
		}
		e.run(rec, runCtx, cancelCause, cancelTimeout, remaining, base)
	}
	return restored, requeued
}

// Get resolves a tracked job. Reads also sweep the TTL — a quiet
// engine (no submissions) still sheds expired result sets — but never
// evict for capacity, so a full-but-fresh table is not drained by
// polling.
func (e *JobEngine) Get(id string) (*JobRecord, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(time.Now())
	rec, ok := e.records[id]
	return rec, ok
}

// Cancel requests cancellation of a tracked job. It returns the record
// and whether it was still running when the request landed. The status
// flips to canceled as soon as the minimizers observe the context —
// within one objective evaluation.
func (e *JobEngine) Cancel(id string) (*JobRecord, bool, bool) {
	rec, ok := e.Get(id)
	if !ok {
		return nil, false, false
	}
	rec.mu.Lock()
	running := rec.status == JobRunning
	rec.mu.Unlock()
	if running {
		rec.cancel(errCanceledByClient)
	}
	return rec, running, true
}

// List snapshots every tracked job, newest first, without results.
func (e *JobEngine) List() []JobView {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(time.Now())
	out := make([]JobView, 0, len(e.order))
	for i := len(e.order) - 1; i >= 0; i-- {
		if rec, ok := e.records[e.order[i]]; ok {
			out = append(out, rec.Header())
		}
	}
	return out
}

// Stats snapshots the engine counters.
func (e *JobEngine) Stats() EngineStats {
	e.mu.Lock()
	tracked := len(e.records)
	e.mu.Unlock()
	return EngineStats{
		Submitted: e.submitted.Load(),
		Canceled:  e.canceled.Load(),
		Active:    int(e.running.Load()),
		Tracked:   tracked,
		InFlight:  e.inflight.Load(),
		Restored:  e.restored.Load(),
		Requeued:  e.requeued.Load(),
		Shed:      e.shed.Load(),
		Panics:    e.pl.Panics(),
	}
}

// sweepLocked drops finished jobs past their TTL. Running jobs are
// never evicted. Callers hold e.mu.
func (e *JobEngine) sweepLocked(now time.Time) {
	ttl := e.ttl()
	keep := e.order[:0]
	for _, id := range e.order {
		rec, ok := e.records[id]
		if !ok {
			continue
		}
		rec.mu.Lock()
		// A record with live followers is pinned no matter how stale:
		// evicting it mid-replay would 404 the subscriber's next poll or
		// reconnect before it ever saw the terminal event. The sweep
		// reclaims it on the first pass after the last follower detaches.
		dead := rec.status != JobRunning && rec.subs == 0 && now.Sub(rec.finished) > ttl
		rec.mu.Unlock()
		if dead {
			delete(e.records, id)
			e.dropLocked(id)
			continue
		}
		keep = append(keep, id)
	}
	e.order = keep
}

// dropLocked journals an eviction so a compacted journal cannot
// resurrect the job at the next boot. Callers hold e.mu.
func (e *JobEngine) dropLocked(id string) {
	if err := e.storeOp(id, "journal drop", func() error {
		return e.Store.JobDropped(id)
	}); err != nil {
		e.logf("fpserve: journal: drop %s: %v", id, err)
	}
}

// evictOldestFinishedLocked makes room for one submission by dropping
// the oldest finished job, reporting whether it could. Only terminal
// jobs are candidates — a running (or queued) job is never evicted, no
// matter how old — and only Submit calls it: capacity eviction must
// never run from a read path, or polling a full table would destroy
// fresh results. Callers hold e.mu.
func (e *JobEngine) evictOldestFinishedLocked() bool {
	for i, id := range e.order {
		rec, ok := e.records[id]
		if !ok {
			continue
		}
		rec.mu.Lock()
		// Pinned like the TTL sweep: a subscribed record is not a free
		// slot, even under capacity pressure.
		finished := rec.status != JobRunning && rec.subs == 0
		rec.mu.Unlock()
		if finished {
			delete(e.records, id)
			e.order = append(e.order[:i:i], e.order[i+1:]...)
			e.dropLocked(id)
			return true
		}
	}
	return false // everything is running
}

// Shutdown stops accepting submissions, cancels every running job with
// the shutdown reason (and the engine context behind them as a
// backstop), and waits for them to drain (each lands within one
// objective evaluation) or for ctx to expire. On a complete drain it
// journals the clean-shutdown marker, so the next boot can tell
// restart from crash.
func (e *JobEngine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.accepting = false
	recs := make([]*JobRecord, 0, len(e.records))
	for _, rec := range e.records {
		recs = append(recs, rec)
	}
	e.mu.Unlock()
	for _, rec := range recs {
		rec.cancel(errShutdown)
	}
	e.stop() // cancels baseCtx: every job context is its child
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if m, ok := e.Store.(interface{ MarkCleanShutdown() error }); ok {
			if err := m.MarkCleanShutdown(); err != nil {
				e.logf("fpserve: journal: clean-shutdown marker: %v", err)
			}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill simulates abrupt process death for crash-recovery testing: the
// store is frozen first (as a SIGKILL would cut all future writes, in
// flight or not), then every job context is cancelled so the
// goroutines of this doomed engine stop burning CPU. Nothing is
// journaled — no terminal records, no shutdown marker — so a journal
// reopened afterward replays exactly the state an unclean crash leaves.
func (e *JobEngine) Kill() {
	if f, ok := e.Store.(interface{ Freeze() }); ok {
		f.Freeze()
	}
	e.mu.Lock()
	e.accepting = false
	e.mu.Unlock()
	e.stop()
}
