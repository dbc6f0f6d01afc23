package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/pipeline"
)

// lateBound is the open-loop validity bound: a run in which the
// generator's own lateness — the delay between being free to send a
// submission and sending it — exceeds this at the 99th percentile
// measured the generator, not the service, and is reported invalid.
// Time the sender spent waiting on an earlier submission is the
// service's and is charged to job latency, not held against the run.
const lateBound = 50 * time.Millisecond

// client is the benchmark's /v1 client. Its transport holds at most
// maxConns connections, shared by every request goroutine.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(maxConns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{hc: &http.Client{Transport: t}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a submission the service shed (429) or could not
// accept (503).
var errRefused = errors.New("refused")

func (c *client) do(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return resp.StatusCode, fmt.Errorf("%w: HTTP %d: %s", errRefused, resp.StatusCode, b)
	case resp.StatusCode >= 300:
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) getJSON(ctx context.Context, url string, out any) error {
	_, err := c.do(ctx, http.MethodGet, url, nil, out)
	return err
}

func (c *client) postJSON(ctx context.Context, url string, body []byte, out any) error {
	_, err := c.do(ctx, http.MethodPost, url, body, out)
	return err
}

// submit posts one job batch and returns its job ID.
func (c *client) submit(ctx context.Context, base string, body []byte) (string, int, error) {
	var resp struct {
		ID string `json:"id"`
	}
	code, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", body, &resp)
	return resp.ID, code, err
}

// maxEvent bounds one event-stream line: a result's encoding.
const maxEvent = 8 << 20

// follow reads job id's event stream (GET /v1/jobs/{id}/events) until
// its done event and returns the job's results and the finished time
// the service reports. The service pushes every event as it happens,
// so the client sees completion without polling and without running
// requests beside the job.
func (c *client) follow(ctx context.Context, base, id string) ([]json.RawMessage, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, time.Time{}, fmt.Errorf("events of job %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	var res []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxEvent)
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
			res = append(res, json.RawMessage(bytes.Clone(data)))
		case "done":
			var v pipeline.JobView
			if err := json.Unmarshal(data, &v); err != nil {
				return res, time.Time{}, fmt.Errorf("done event of job %s: %w", id, err)
			}
			if v.Status != pipeline.JobCompleted {
				return res, time.Time{}, fmt.Errorf("job %s ended %s: %s", id, v.Status, v.Reason)
			}
			if v.Finished == nil {
				return res, time.Time{}, fmt.Errorf("done event of job %s has no finished time", id)
			}
			return res, *v.Finished, nil
		}
	}
	if err := sc.Err(); err != nil {
		return res, time.Time{}, err
	}
	return res, time.Time{}, fmt.Errorf("events of job %s ended before its done event", id)
}

// op is one submission's outcome.
type op struct {
	Job  int64 // arrival index + 1 (open loop) or sequence index + 1 (closed loop)
	Tmpl int
	Due  time.Time // open loop: scheduled send time; closed loop: send time
	// Free is when the sender could take the op: its due time, or the
	// end of the previous submission when that ran past it. Sent minus
	// Free is the generator's own lateness; Free minus Due is time the
	// service kept the sender on an earlier submission.
	Free time.Time
	Sent time.Time
	Done time.Time // when the client had read the last result
	// Ready is when the service sealed the job, from the finished time
	// it reports: the moment the last result became readable. Latency
	// ends here, so how and when the client reads is not charged to the
	// service.
	Ready time.Time
	// Sums are the digests of the job's masked results, in order, and
	// Unclean describes the first result that carries an error or was
	// cancelled. Results are the served bytes themselves, kept for the
	// first job of each template only (see settle).
	Sums    [][sha256.Size]byte
	Unclean string
	Results []json.RawMessage
	Err     error
}

// settle records what the gate needs of the job's results: their masked
// digests and whether every one is clean. It keeps the bytes only when
// h grants the job's template its first copy, so the results a run has
// read do not count toward the peak memory it reports.
func (o *op) settle(res []json.RawMessage, h *holder) {
	o.Sums = make([][sha256.Size]byte, len(res))
	for k, r := range res {
		o.Sums[k] = sha256.Sum256(mask(r))
		var head resultHead
		if err := json.Unmarshal(r, &head); o.Unclean == "" && (err != nil || head.Error != "" || head.Canceled) {
			o.Unclean = fmt.Sprintf("result %d not clean: %.200s", k, r)
		}
	}
	if h.first(o.Tmpl) {
		o.Results = res
	}
}

// holder grants each template's first finished job the keeping of its
// result bytes. A nil holder grants none.
type holder struct {
	mu   sync.Mutex
	held map[int]bool
}

func newHolder() *holder { return &holder{held: map[int]bool{}} }

func (h *holder) first(tmpl int) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.held[tmpl] {
		return false
	}
	h.held[tmpl] = true
	return true
}

// latency runs from the due time to the finished time the service
// reported.
func (o *op) latency() time.Duration { return o.Ready.Sub(o.Due) }

// readLatency runs from the due time until the client had read the last
// result.
func (o *op) readLatency() time.Duration { return o.Done.Sub(o.Due) }

// spinAhead is how early the open-loop sender wakes from its sleep to
// wait out the rest of a gap by yielding: Go timers on the Linux VMs
// this benchmark was tuned on woke 0.6 ms late at the median and 1.6 ms
// at p99, which the due-time rule would charge to the service.
const spinAhead = 2 * time.Millisecond

// waitUntil returns at t, or with ctx's error when ctx ends first.
func waitUntil(ctx context.Context, t time.Time) error {
	if d := time.Until(t) - spinAhead; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for time.Now().Before(t) {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return nil
}

// openResult is the open-loop phase's outcome.
type openResult struct {
	Ops   []*op
	Start time.Time
}

// runOpen sends the schedule open-loop: one goroutine submits each job
// at its due time whatever is outstanding, and a second follows the
// submitted jobs' event streams in submission order, each until its
// done event. Latency runs from the due time, so a stalled submission
// charges the wait to every job queued behind it, until the finished
// time the service reports: a job that finishes while the follower
// still reads an earlier job's stream is timed as finished, not as read.
func runOpen(ctx context.Context, c *client, base string, t *traffic, h *holder) *openResult {
	type pending struct {
		o  *op
		id string
	}
	res := &openResult{Ops: make([]*op, len(t.Open))}
	submitted := make(chan pending, len(t.Open)) // sized to the schedule: the sender never blocks
	res.Start = time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(submitted)
		var prev time.Time
		for i, a := range t.Open {
			o := &op{Job: int64(i + 1), Tmpl: a.Tmpl, Due: res.Start.Add(a.Due)}
			o.Free = o.Due
			if prev.After(o.Free) {
				o.Free = prev
			}
			res.Ops[i] = o
			if o.Err = waitUntil(ctx, o.Due); o.Err != nil {
				continue
			}
			o.Sent = time.Now()
			var id string
			id, _, o.Err = c.submit(ctx, base, t.Templates[a.Tmpl].Body)
			prev = time.Now()
			c.tr.add("http.submit", o.Job, o.Tmpl, 0, o.Sent, prev)
			if o.Err != nil {
				o.Done = prev
				continue
			}
			submitted <- pending{o, id}
		}
	}()
	for p := range submitted {
		var res []json.RawMessage
		res, p.o.Ready, p.o.Err = c.follow(ctx, base, p.id)
		p.o.Done = time.Now()
		p.o.settle(res, h)
	}
	return res
}

// inflightMax is the most submissions the service held at once: jobs
// sent and not yet finished.
func inflightMax(ops []*op) int {
	type edge struct {
		at time.Time
		d  int
	}
	var es []edge
	for _, o := range ops {
		if o.Err == nil && !o.Sent.IsZero() {
			es = append(es, edge{o.Sent, 1}, edge{o.Ready, -1})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].at.Equal(es[j].at) {
			return es[i].d < es[j].d
		}
		return es[i].at.Before(es[j].at)
	})
	n, most := 0, 0
	for _, e := range es {
		n += e.d
		most = max(most, n)
	}
	return most
}

// closedResult is the closed-loop phase's outcome.
type closedResult struct {
	Ops     []*op
	Start   time.Time
	Elapsed time.Duration
}

// perWindow counts the ops accepted by ok that completed in each whole
// window of width w from the phase start, as completions per second.
func (r *closedResult) perWindow(w time.Duration, ok func(*op) bool) []float64 {
	n := int(r.Elapsed / w)
	counts := make([]float64, n)
	for _, o := range r.Ops {
		if i := int(o.Done.Sub(r.Start) / w); ok(o) && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

// passTimes splits the ops, in sequence order, into whole passes of n
// jobs and returns each pass's time in seconds: from its first send to
// its last result.
func (r *closedResult) passTimes(n int) []float64 {
	bySeq := make([]*op, len(r.Ops))
	for _, o := range r.Ops {
		bySeq[-o.Job-1] = o
	}
	var out []float64
	for k := 0; n > 0 && (k+1)*n <= len(bySeq); k++ {
		first, last := bySeq[k*n].Due, bySeq[k*n].Done
		for _, o := range bySeq[k*n : (k+1)*n] {
			if o.Due.Before(first) {
				first = o.Due
			}
			if o.Done.After(last) {
				last = o.Done
			}
		}
		out = append(out, last.Sub(first).Seconds())
	}
	return out
}

// runClosed runs submitters closed-loop for d, and on until at least
// minOps jobs have been sent: each sends the next job of the sequence,
// waits for its last result, and sends again. Jobs in flight at the
// deadline finish and count.
func runClosed(ctx context.Context, c *client, base string, t *traffic, submitters int, d time.Duration, minOps int, h *holder) *closedResult {
	res := &closedResult{}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var last time.Time
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(minOps) && !time.Now().Before(deadline) {
					return
				}
				tmpl := t.Closed[int(i)%len(t.Closed)]
				o := &op{Job: -(i + 1), Tmpl: tmpl, Due: time.Now()}
				o.Sent = o.Due
				var id string
				id, _, o.Err = c.submit(ctx, base, t.Templates[tmpl].Body)
				c.tr.add("http.submit", o.Job, tmpl, 0, o.Sent, time.Now())
				var results []json.RawMessage
				if o.Err == nil {
					results, o.Ready, o.Err = c.follow(ctx, base, id)
				}
				o.Done = time.Now()
				o.settle(results, h)
				mu.Lock()
				res.Ops = append(res.Ops, o)
				if o.Done.After(last) {
					last = o.Done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Start, res.Elapsed = start, last.Sub(start)
	return res
}

// analysisSpecWarm is the warm-up job: one coverage round of one
// evaluation, enough to resolve the program and run every layer once.
func analysisSpecWarm() analysis.Spec {
	return analysis.Spec{Analysis: "coverage", Seed: 1, Evals: 1, Stall: 1}
}
