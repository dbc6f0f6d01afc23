package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// Coordinator defaults and fixed bounds.
const (
	// DefaultProbeEvery is the health-probe interval for live workers.
	DefaultProbeEvery = 2 * time.Second
	// DefaultDeadAfter is how many consecutive probe failures take a
	// worker out of the ring.
	DefaultDeadAfter = 3
	// httpTimeout bounds each control-plane request (probe,
	// registration, submit, cancel). A result stream has no such bound:
	// it stays open while its sub-batch runs, and ends when the probe
	// loop marks its worker dead.
	httpTimeout = 15 * time.Second
	// noWorkerGrace is how long routing waits out a fully dead fleet
	// before failing the affected jobs.
	noWorkerGrace = 30 * time.Second
	// dispatchAttempts bounds how many times one job is re-routed after
	// worker failures before it fails with an error result. Each
	// attempt already carries its own submit/stream retry budget, so this
	// limit only fires when the fleet is melting down faster than the
	// probe loop can notice.
	dispatchAttempts = 4
)

// Config configures a Coordinator.
type Config struct {
	// Workers lists the fleet ("host:port" or full URLs).
	Workers []string
	// ProbeEvery is the health-probe interval (0 = DefaultProbeEvery).
	// Dead workers are re-probed under deterministic capped-exponential
	// backoff on top of this interval.
	ProbeEvery time.Duration
	// DeadAfter is the consecutive-probe-failure threshold that marks a
	// worker dead (0 = DefaultDeadAfter).
	DeadAfter int
	// Seed derives probe/retry backoff jitter (deterministic per seed).
	Seed int64
	// Logf, when non-nil, receives operational log lines (worker
	// deaths, requeues, fleet shedding).
	Logf func(format string, args ...any)
}

// workerState is the coordinator's view of one fpserve worker.
type workerState struct {
	name   string // host:port, the ring member key
	client *Client

	alive       atomic.Bool
	consecFails atomic.Int64 // consecutive probe failures
	lastProbe   atomic.Int64 // unixnano of the last probe attempt

	// stateMu orders the alive transitions against gen, which every
	// piece of death evidence (suspect, a probe-detected death) bumps.
	// A probe captures gen when it starts and may revive the worker
	// only if no evidence arrived while it was in flight: an answer
	// sent before a kill must not overturn the kill.
	stateMu sync.Mutex
	gen     int64
	// live ends when the worker is marked dead and is renewed when it
	// rejoins. Every result stream open to the worker ends with it, so
	// a death the probe loop notices also ends a stream that would
	// otherwise block on a silent connection.
	live context.Context
	kill context.CancelFunc

	// Routing/attribution counters, surfaced in /stats.
	inflight   atomic.Int64 // jobs assigned, result not yet delivered
	routed     atomic.Int64 // jobs ever assigned here
	requeued   atomic.Int64 // jobs moved off this worker after it failed
	shed       atomic.Int64 // 429 refusals this worker answered
	deaths     atomic.Int64 // times the probe loop marked it dead
	probeFails atomic.Int64 // total failed probes

	regMu      sync.Mutex
	registered map[string]bool // program IDs this coordinator registered here
}

// liveCtx returns the context that ends when the worker is next marked
// dead.
func (w *workerState) liveCtx() context.Context {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	return w.live
}

func (w *workerState) isRegistered(id string) bool {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	return w.registered[id]
}

func (w *workerState) setRegistered(id string) {
	w.regMu.Lock()
	w.registered[id] = true
	w.regMu.Unlock()
}

func (w *workerState) programCount() int {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	return len(w.registered)
}

// Coordinator fans job batches over a worker fleet. Install Run as the
// JobEngine's Runner and Admit as its AdmitHook; the engine's journal,
// job table, and /v1 surfaces operate unchanged on the stitched
// results.
type Coordinator struct {
	cfg  Config
	ring *Ring
	hc   *http.Client // shared by every worker's Client

	workers map[string]*workerState
	order   []string // stable listing order

	stop chan struct{}
	done chan struct{}

	shedUntil  atomic.Int64 // unixnano: fleet-level shedding window end
	shedRetry  atomic.Int64 // ns: the worst Retry-After hint in the window
	shedTotal  atomic.Int64 // worker 429s observed
	admitShed  atomic.Int64 // submissions Admit refused
	requeues   atomic.Int64 // jobs re-routed off failed workers
	dispatched atomic.Int64 // jobs handed to Run
}

// New validates cfg and builds a Coordinator with every worker
// initially alive (the first probe pass corrects optimism within one
// interval). Call Start to begin health probing and Close to stop it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(),
		hc:      newHTTPClient(),
		workers: map[string]*workerState{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, raw := range cfg.Workers {
		base, name, err := normalizeWorker(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := c.workers[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %s", name)
		}
		w := &workerState{
			name:       name,
			client:     &Client{Base: base, hc: c.hc},
			registered: map[string]bool{},
		}
		w.alive.Store(true)
		w.live, w.kill = context.WithCancel(context.Background())
		c.workers[name] = w
		c.order = append(c.order, name)
		c.ring.Add(name)
	}
	return c, nil
}

// normalizeWorker turns "host:port" or a URL into (base URL, member
// name).
func normalizeWorker(raw string) (base, name string, err error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", "", errors.New("cluster: empty worker address")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return "", "", fmt.Errorf("cluster: bad worker address %q", raw)
	}
	return strings.TrimSuffix(u.String(), "/"), u.Host, nil
}

func (c *Coordinator) probeEvery() time.Duration {
	if c.cfg.ProbeEvery > 0 {
		return c.cfg.ProbeEvery
	}
	return DefaultProbeEvery
}

func (c *Coordinator) deadAfter() int {
	if c.cfg.DeadAfter > 0 {
		return c.cfg.DeadAfter
	}
	return DefaultDeadAfter
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Start launches the health-probe loop (one immediate pass, then every
// ProbeEvery).
func (c *Coordinator) Start() {
	go c.probeLoop()
}

// Close stops the probe loop, waits for it to exit, and closes the idle
// worker connections. In-flight Run calls are unaffected — the engine's
// shutdown cancels their contexts.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	c.hc.CloseIdleConnections()
}

func (c *Coordinator) probeLoop() {
	defer close(c.done)
	c.probeAll()
	t := time.NewTicker(c.probeEvery())
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every due worker concurrently. A live worker is due
// every tick; a dead one is re-probed under deterministic
// capped-exponential backoff (pipeline.Backoff over the probe
// interval, seeded per worker), so a down fleet is not hammered while
// a recovering worker is still noticed within a few intervals.
func (c *Coordinator) probeAll() {
	now := time.Now()
	var wg sync.WaitGroup
	for _, name := range c.order {
		w := c.workers[name]
		if !w.alive.Load() {
			b := pipeline.Backoff{
				Base: c.probeEvery(), Max: 8 * c.probeEvery(),
				Seed: c.cfg.Seed ^ int64(hash64(w.name)),
			}
			over := int(w.consecFails.Load()) - c.deadAfter()
			if over > 3 {
				over = 3
			}
			if over > 0 && now.Sub(time.Unix(0, w.lastProbe.Load())) < b.Delay(over) {
				continue
			}
		}
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
}

// probe health-checks one worker. The deadline is the control-plane
// HTTP timeout, NOT the probe interval: a worker with every core
// pinned by minimization answers /healthz late, and "busy" must not
// read as "dead" (a killed process still fails fast with a connection
// refusal). Probes are concurrent, so a slow probe delays nothing but
// its own worker's verdict.
func (c *Coordinator) probe(w *workerState) {
	w.stateMu.Lock()
	gen := w.gen
	w.stateMu.Unlock()
	w.lastProbe.Store(time.Now().UnixNano())
	ctx, cancel := context.WithTimeout(context.Background(), httpTimeout)
	defer cancel()
	if err := w.client.Healthz(ctx); err != nil {
		n := w.consecFails.Add(1)
		w.probeFails.Add(1)
		if int(n) >= c.deadAfter() && c.markDead(w) {
			c.logf("cluster: worker %s marked dead after %d failed probes (%v); requeueing its jobs",
				w.name, n, err)
		}
		return
	}
	w.consecFails.Store(0)
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.gen != gen || w.alive.Load() {
		return
	}
	w.alive.Store(true)
	w.live, w.kill = context.WithCancel(context.Background())
	// A restarted worker has an empty program store: forget what we
	// registered so first routing re-registers lazily.
	w.regMu.Lock()
	w.registered = map[string]bool{}
	w.regMu.Unlock()
	c.ring.SetAlive(w.name, true)
	c.logf("cluster: worker %s back in the ring", w.name)
}

// markDead records death evidence against the worker — bumping its
// generation, so no probe already in flight can revive it — and takes
// it out of the ring, ending every result stream open to it. It reports
// whether the worker was alive.
func (c *Coordinator) markDead(w *workerState) bool {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	w.gen++
	if !w.alive.Load() {
		return false
	}
	w.alive.Store(false)
	w.kill()
	w.deaths.Add(1)
	c.ring.SetAlive(w.name, false)
	return true
}

// suspect takes a worker out of the ring on direct dispatch evidence —
// transport failures, a vanished job — without waiting for the probe
// loop to accumulate failures; requeued jobs route straight to
// survivors. The next probe sent after the evidence that succeeds
// brings the worker back (and, as with any rejoin, resets its
// registered-program bookkeeping).
func (c *Coordinator) suspect(w *workerState, why error) {
	if c.markDead(w) {
		c.logf("cluster: worker %s suspected dead (%v); detouring its keys", w.name, why)
	}
}

// Admit is the JobEngine admission hook: fleet-level backpressure.
// While any worker's 429 Retry-After window is open, or no worker is
// alive, new batches are refused with ErrOverloaded so the
// coordinator's own clients shed load instead of queueing blindly.
func (c *Coordinator) Admit(jobs int) error {
	if until := c.shedUntil.Load(); until > time.Now().UnixNano() {
		c.admitShed.Add(1)
		return pipeline.ErrOverloaded{
			Reason:     "the worker fleet is shedding load (a worker answered 429)",
			RetryAfter: time.Duration(c.shedRetry.Load()),
		}
	}
	if c.ring.AliveCount() == 0 {
		c.admitShed.Add(1)
		return pipeline.ErrOverloaded{
			Reason:     "no live workers in the fleet",
			RetryAfter: c.probeEvery(),
		}
	}
	return nil
}

// noteShed aggregates one worker 429 into the coordinator watermark:
// admission refuses new batches until the worst outstanding
// Retry-After hint has elapsed.
func (c *Coordinator) noteShed(w *workerState, retryAfter time.Duration) {
	w.shed.Add(1)
	c.shedTotal.Add(1)
	if retryAfter <= 0 {
		retryAfter = pipeline.DefaultRetryAfter
	}
	until := time.Now().Add(retryAfter).UnixNano()
	for {
		cur := c.shedUntil.Load()
		if cur >= until {
			return
		}
		if c.shedUntil.CompareAndSwap(cur, until) {
			c.shedRetry.Store(int64(retryAfter))
			return
		}
	}
}

// Run is the fleet Runner (see pipeline.Runner): it routes each job to
// a live worker by the consistent hash of its program, executes the
// sub-batches remotely, and emits results in batch order, byte-
// identical to a local run. Worker deaths requeue the unfinished
// remainder onto survivors; the engine's caller never observes
// anything but a slower batch.
func (c *Coordinator) Run(ctx context.Context, jobs []pipeline.Job, base int, emit func(int, json.RawMessage)) {
	n := len(jobs)
	if n == 0 {
		return
	}
	c.dispatched.Add(int64(n))
	results := make([]chan json.RawMessage, n)
	for i := range results {
		results[i] = make(chan json.RawMessage, 1)
	}
	deliver := func(i int, raw json.RawMessage) { results[i] <- raw }

	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	var wg sync.WaitGroup
	c.dispatch(ctx, &wg, jobs, base, idxs, 0, deliver)

	// In-order drain: every index is guaranteed exactly one delivery —
	// a worker result, a requeued result, or a synthesized
	// canceled/error stub.
	for i := 0; i < n; i++ {
		emit(base+i, <-results[i])
	}
	wg.Wait()
}

// dispatch assigns idxs to live workers and runs each group in its own
// goroutine; groups a worker could not finish are re-dispatched onto
// survivors (attempt+1). Jobs that exhaust dispatchAttempts, or that
// find no live worker within the grace period, are failed with
// synthesized results so Run's drain never deadlocks.
func (c *Coordinator) dispatch(ctx context.Context, wg *sync.WaitGroup, jobs []pipeline.Job, base int, idxs []int, attempt int, deliver func(int, json.RawMessage)) {
	if attempt >= dispatchAttempts {
		for _, i := range idxs {
			c.logf("cluster: job %d failed after %d dispatch attempts", base+i, attempt)
			deliver(i, synthResult(jobs[i], base+i, false,
				fmt.Sprintf("cluster: dispatch failed after %d attempts across the fleet", attempt)))
		}
		return
	}
	groups, unplaced := c.assign(ctx, jobs, idxs)
	for _, i := range unplaced {
		if ctx.Err() != nil {
			deliver(i, synthCanceled(jobs[i], base+i, ctx))
		} else {
			deliver(i, synthResult(jobs[i], base+i, false,
				fmt.Sprintf("cluster: no live worker within %v", noWorkerGrace)))
		}
	}
	for w, group := range groups {
		w, group := w, group
		wg.Add(1)
		go func() {
			defer wg.Done()
			unfinished, err := c.runGroup(ctx, w, jobs, base, group, deliver)
			if len(unfinished) == 0 {
				return
			}
			w.requeued.Add(int64(len(unfinished)))
			c.requeues.Add(int64(len(unfinished)))
			w.inflight.Add(-int64(len(unfinished)))
			c.logf("cluster: requeueing %d jobs off %s: %v", len(unfinished), w.name, err)
			c.dispatch(ctx, wg, jobs, base, unfinished, attempt+1, deliver)
		}()
	}
}

// assign routes each index to a live worker under the bounded-load
// rule, bumping the chosen worker's in-flight load as it goes (so the
// cap sees this batch's own placements, not just earlier batches). If
// the whole fleet is dead it waits — under backoff, up to
// noWorkerGrace — for the probe loop to restore someone; indices that
// never find a worker are returned as unplaced.
func (c *Coordinator) assign(ctx context.Context, jobs []pipeline.Job, idxs []int) (map[*workerState][]int, []int) {
	load := func(name string) int { return int(c.workers[name].inflight.Load()) }
	b := pipeline.Backoff{Base: 10 * time.Millisecond, Max: c.probeEvery(), Seed: c.cfg.Seed}
	deadline := time.Now().Add(noWorkerGrace)
	for attempt := 0; ; attempt++ {
		groups := map[*workerState][]int{}
		ok := true
		for _, i := range idxs {
			name, up := c.ring.Owner(RouteKey(jobs[i]), load)
			if !up {
				ok = false
				break
			}
			w := c.workers[name]
			w.inflight.Add(1)
			w.routed.Add(1)
			groups[w] = append(groups[w], i)
		}
		if ok {
			return groups, nil
		}
		for w, group := range groups { // undo the partial placement
			w.inflight.Add(-int64(len(group)))
			w.routed.Add(-int64(len(group)))
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return nil, idxs
		}
		j := attempt
		if j > 8 {
			j = 8
		}
		select {
		case <-time.After(b.Delay(j)):
		case <-ctx.Done():
		}
	}
}

// RouteKey is a job's consistent-hash key: the content address of its
// program when it has one — the same sha256 that keys worker module
// caches, so all jobs on one program land where it is already compiled
// — and a stable surrogate otherwise.
func RouteKey(j pipeline.Job) string {
	switch {
	case j.Source != "":
		return pipeline.SourceID(j.Source)
	case j.Builtin != "":
		return "builtin:" + j.Builtin
	default:
		return pipeline.SourceID("formula:" + j.Spec.Formula)
	}
}

// runGroup executes one worker's sub-batch: lazy program registration,
// submit (retrying 429s under the fleet backpressure contract), then
// in-order delivery from the worker job's event stream. It returns the
// indices it could not finish — the caller requeues them — or delivers
// everything and returns nil. A coordinator-side cancellation (ctx) is
// not a failure: the worker job is cancelled, its terminal results are
// collected briefly, and anything still missing is synthesized exactly
// as a local cancelled batch would report it.
func (c *Coordinator) runGroup(ctx context.Context, w *workerState, jobs []pipeline.Job, base int, idxs []int, deliver func(int, json.RawMessage)) ([]int, error) {
	// Lazy idempotent registration: every distinct program in the
	// group that this coordinator has not yet registered on w.
	for _, i := range idxs {
		src := jobs[i].Source
		if src == "" {
			continue
		}
		id := pipeline.SourceID(src)
		if w.isRegistered(id) {
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, httpTimeout)
		_, err := w.client.RegisterProgram(rctx, src, jobs[i].Lang, "")
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil, c.finishCanceled(ctx, w, "", jobs, base, idxs, 0, deliver)
			}
			var se *StatusError
			if !errors.As(err, &se) {
				c.suspect(w, err) // transport failure, not a worker answer
			}
			return idxs, fmt.Errorf("registering %s: %w", id, err)
		}
		w.setRegistered(id)
	}

	v1jobs := make([]pipeline.V1Job, 0, len(idxs))
	for _, i := range idxs {
		j := jobs[i]
		vj := pipeline.V1Job{Builtin: j.Builtin, Func: j.Func, Spec: j.Spec}
		if j.Source != "" {
			vj.Program = pipeline.SourceID(j.Source)
		}
		v1jobs = append(v1jobs, vj)
	}

	// Submit. 429s are backpressure, not failure: they propagate into
	// the coordinator's admission watermark and the sub-batch retries
	// after the worker's own hint. Transport errors get a bounded retry
	// before the group is declared failed.
	retryB := pipeline.Backoff{Base: 20 * time.Millisecond, Max: time.Second,
		Seed: c.cfg.Seed ^ int64(hash64(w.name))}
	var jobID string
	transportFails := 0
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil, c.finishCanceled(ctx, w, "", jobs, base, idxs, 0, deliver)
		}
		if !w.alive.Load() {
			return idxs, fmt.Errorf("worker %s died before accepting the sub-batch", w.name)
		}
		sctx, cancel := context.WithTimeout(ctx, httpTimeout)
		id, err := w.client.SubmitJobs(sctx, v1jobs)
		cancel()
		if err == nil {
			jobID = id
			break
		}
		var busy *ErrWorkerBusy
		if errors.As(err, &busy) {
			c.noteShed(w, busy.RetryAfter)
			delay := busy.RetryAfter
			if d := retryB.Delay(minInt(attempt, 6)); d > delay {
				delay = d
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
			continue
		}
		transportFails++
		if transportFails > 4 {
			var se *StatusError
			if !errors.As(err, &se) {
				c.suspect(w, err)
			}
			return idxs, fmt.Errorf("submitting to %s: %w", w.name, err)
		}
		select {
		case <-time.After(retryB.Delay(transportFails - 1)):
		case <-ctx.Done():
		}
	}

	// Follow the job's event stream. served counts results delivered —
	// the cursor into idxs, so delivery order within the group matches
	// worker emission order (batch order). A dropped stream is read
	// again from its start, skipping the served prefix, under the same
	// bounded backoff as submits; a read that delivers resets the count.
	served := 0
	fails := 0
	for {
		live := w.liveCtx()
		sctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(live, cancel)
		before := served
		status, err := w.client.Follow(sctx, jobID, skipServed(served, len(idxs), func(raw json.RawMessage) error {
			if ctx.Err() == nil && resultCanceled(raw) {
				// The worker cancelled under us (drain, shutdown, local
				// deadline) while the coordinator still wants the
				// results: everything from here re-runs on survivors.
				return errWorkerCanceled
			}
			i := idxs[served]
			deliver(i, reindex(raw, base+i))
			w.inflight.Add(-1)
			served++
			return nil
		}))
		stop()
		cancel()
		switch {
		case served == len(idxs):
			return nil, nil
		case ctx.Err() != nil:
			return nil, c.finishCanceled(ctx, w, jobID, jobs, base, idxs, served, deliver)
		case err == nil:
			return idxs[served:], fmt.Errorf("job %s on %s ended %q with %d/%d results",
				jobID, w.name, status, served, len(idxs))
		case errors.Is(err, errWorkerCanceled):
			c.bestEffortCancel(w, jobID)
			return idxs[served:], fmt.Errorf("worker %s cancelled job %s mid-batch", w.name, jobID)
		case live.Err() != nil:
			c.bestEffortCancel(w, jobID)
			return idxs[served:], fmt.Errorf("worker %s marked dead mid-batch (%d/%d results in)",
				w.name, served, len(idxs))
		case errNotFound(err):
			// A vanished job means the worker restarted (or evicted it):
			// suspect it so the requeue routes to survivors, and so its
			// rejoin re-registers programs against the empty store.
			c.suspect(w, err)
			return idxs[served:], fmt.Errorf("job %s vanished on %s (restart or eviction)", jobID, w.name)
		}
		if served > before {
			fails = 0
		}
		fails++
		if fails > 6 {
			var se *StatusError
			if !errors.As(err, &se) {
				c.suspect(w, err)
			}
			c.bestEffortCancel(w, jobID)
			return idxs[served:], fmt.Errorf("following %s on %s: %w", jobID, w.name, err)
		}
		select {
		case <-time.After(retryB.Delay(fails - 1)):
		case <-ctx.Done():
		case <-live.Done():
		}
	}
}

// errWorkerCanceled ends a stream at a result the worker cancelled
// while the coordinator still wants it.
var errWorkerCanceled = errors.New("cluster: the worker cancelled a job mid-batch")

// skipServed adapts take to a stream read from its start: the first
// served results, which an earlier read delivered, are passed over, and
// so is anything past the sub-batch's n results.
func skipServed(served, n int, take func(json.RawMessage) error) func(json.RawMessage) error {
	seen := 0
	return func(raw json.RawMessage) error {
		seen++
		if seen <= served || seen > n {
			return nil
		}
		return take(raw)
	}
}

// finishCanceled handles a coordinator-side cancellation of a running
// sub-batch: cancel the worker job, briefly collect the terminal
// results it did produce (partial minimization reports included, as a
// local cancellation would keep), then synthesize the local
// cancellation stub for anything the worker never delivered. Every
// index is delivered, so Run's drain completes.
func (c *Coordinator) finishCanceled(ctx context.Context, w *workerState, jobID string, jobs []pipeline.Job, base int, idxs []int, served int, deliver func(int, json.RawMessage)) error {
	if jobID != "" {
		// Errors are not checked: whatever the stream does not deliver
		// within the bound is synthesized below.
		bg, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		w.client.Cancel(bg, jobID)
		w.client.Follow(bg, jobID, skipServed(served, len(idxs), func(raw json.RawMessage) error {
			i := idxs[served]
			deliver(i, reindex(raw, base+i))
			w.inflight.Add(-1)
			served++
			return nil
		}))
		cancel()
	}
	for ; served < len(idxs); served++ {
		i := idxs[served]
		deliver(i, synthCanceled(jobs[i], base+i, ctx))
		w.inflight.Add(-1)
	}
	return nil
}

func (c *Coordinator) bestEffortCancel(w *workerState, jobID string) {
	if jobID == "" {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		w.client.Cancel(ctx, jobID)
	}()
}

// resultCanceled sniffs a wire result's canceled flag.
func resultCanceled(raw json.RawMessage) bool {
	var probe struct {
		Canceled bool `json:"canceled"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.Canceled
}

// synthCanceled is the stub a local run emits for a job cancelled
// before (or while) running — same fields, same bytes.
func synthCanceled(j pipeline.Job, index int, ctx context.Context) json.RawMessage {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = ctx.Err()
	}
	if cause == nil {
		cause = context.Canceled
	}
	return pipeline.MarshalResult(pipeline.JobResult{
		Index: index, Analysis: j.Spec.Analysis,
		Canceled: true, Error: "canceled: " + cause.Error(),
	})
}

// synthResult is a coordinator-generated error (or canceled) result
// for a job the fleet could not execute.
func synthResult(j pipeline.Job, index int, canceled bool, msg string) json.RawMessage {
	return pipeline.MarshalResult(pipeline.JobResult{
		Index: index, Analysis: j.Spec.Analysis, Canceled: canceled, Error: msg,
	})
}

// indexPrefix matches MarshalResult output: Index is the first struct
// field, so encoding/json emits it first — which is what makes a
// byte-level index rewrite safe.
var indexPrefix = []byte(`{"index":`)

// reindex rewrites a worker result's leading index field to the
// coordinator's batch index, leaving every other byte of the worker's
// wire result untouched — the stitched batch is byte-identical to a
// single-node run. The result never shares raw's memory, which the
// event stream reuses.
func reindex(raw json.RawMessage, index int) json.RawMessage {
	rest, ok := cutPrefix(raw, indexPrefix)
	if ok {
		digits := 0
		for digits < len(rest) && (rest[digits] == '-' || (rest[digits] >= '0' && rest[digits] <= '9')) {
			digits++
		}
		if digits > 0 {
			out := make([]byte, 0, len(raw)+4)
			out = append(out, indexPrefix...)
			out = strconv.AppendInt(out, int64(index), 10)
			out = append(out, rest[digits:]...)
			return out
		}
	}
	// Unexpected shape: fall back to a strict re-encode.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err == nil {
		m["index"] = index
		if b, err := json.Marshal(m); err == nil {
			return b
		}
	}
	return append(json.RawMessage(nil), raw...)
}

func cutPrefix(b, prefix []byte) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != string(prefix) {
		return b, false
	}
	return b[len(prefix):], true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WorkerStats is one worker's row in the coordinator /stats document.
type WorkerStats struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	// Routed counts jobs ever assigned here; Requeued the jobs moved
	// off after a failure; Shed its 429 refusals; InFlight the jobs
	// currently assigned.
	Routed   int64 `json:"routed"`
	Requeued int64 `json:"requeued"`
	Shed     int64 `json:"shed"`
	InFlight int64 `json:"inFlight"`
	// Programs counts programs this coordinator registered here (reset
	// when the worker rejoins after a death).
	Programs int `json:"programs"`
	// Deaths and ProbeFailures are the health-probe history.
	Deaths        int64 `json:"deaths,omitempty"`
	ProbeFailures int64 `json:"probeFailures,omitempty"`
}

// Stats is the coordinator's /stats document.
type Stats struct {
	Workers []WorkerStats `json:"workers"`
	Alive   int           `json:"alive"`
	// Dispatched counts jobs handed to the fleet Runner; Requeued the
	// re-routes after worker failures; WorkerShed the worker 429s
	// observed; AdmitShed the submissions the fleet watermark refused.
	Dispatched int64 `json:"dispatched"`
	Requeued   int64 `json:"requeued"`
	WorkerShed int64 `json:"workerShed"`
	AdmitShed  int64 `json:"admitShed"`
	// SheddingForMS is the remaining fleet-level shedding window, 0
	// when admission is open.
	SheddingForMS int64 `json:"sheddingForMs,omitempty"`
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		Dispatched: c.dispatched.Load(),
		Requeued:   c.requeues.Load(),
		WorkerShed: c.shedTotal.Load(),
		AdmitShed:  c.admitShed.Load(),
		Alive:      c.ring.AliveCount(),
	}
	if until := c.shedUntil.Load(); until > time.Now().UnixNano() {
		s.SheddingForMS = (until - time.Now().UnixNano()) / int64(time.Millisecond)
	}
	for _, name := range c.order {
		w := c.workers[name]
		s.Workers = append(s.Workers, WorkerStats{
			Name:          w.name,
			Alive:         w.alive.Load(),
			Routed:        w.routed.Load(),
			Requeued:      w.requeued.Load(),
			Shed:          w.shed.Load(),
			InFlight:      w.inflight.Load(),
			Programs:      w.programCount(),
			Deaths:        w.deaths.Load(),
			ProbeFailures: w.probeFails.Load(),
		})
	}
	return s
}

// StatsDoc adapts Stats to the pipeline Server's ClusterStats hook.
func (c *Coordinator) StatsDoc() any { return c.Stats() }
