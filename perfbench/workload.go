package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/pipeline"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not run reads 0.
var layerUnits = [][2]string{
	{"lang.parse_us", "us"}, {"lang.check_us", "us"}, {"ir.lower_us", "us"},
	{"gofront.compile_us", "us"}, {"compile.compile_us", "us"},
	{"cache.compiles", "count"}, {"cache.hit_ratio", "ratio"}, {"cache.hit_us", "us"},
	{"exec.evals", "count"}, {"exec.ns_per_eval", "ns"}, {"exec.share", "ratio"}, {"exec.lanes_mean", "count"},
	{"search.self_ms", "ms"}, {"opt.evals", "count"},
	{"paper.table1_s", "s"}, {"paper.sin_s", "s"}, {"paper.gsl_s", "s"}, {"paper.figs_s", "s"},
	{"engine.queue_ms", "ms"}, {"engine.run_ms", "ms"}, {"engine.shed", "count"},
	{"http.submit_ms", "ms"}, {"http.events_ms", "ms"}, {"http.req_kb", "KiB"}, {"encode.result_us", "us"},
	{"journal.append_us", "us"}, {"journal.syncs", "count"}, {"journal.bytes", "bytes"},
	{"cluster.hop_ms", "ms"}, {"cluster.worker_hit_ratio", "ratio"}, {"cluster.route_skew", "ratio"},
	{"cluster.requeued", "count"},
	{"loadgen.late_ms", "ms"}, {"loadgen.inflight_max", "count"},
}

func zeroLayers() metrics {
	m := metrics{}
	for _, lu := range layerUnits {
		m.set(lu[0], 0, lu[1])
	}
	return m
}

// runPaper regenerates §6 for the seed list, pass after pass, until the
// run's time is spent (the first pass always completes). Every
// regeneration must meet the headline checks, and every later pass must
// reproduce the first pass's masked output.
func runPaper(ctx context.Context, cfg config, tr *tracer) (outcome, error) {
	seeds := paperSeeds(cfg.seed)
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		regenerate(warmSeed(cfg.seed), nil, 0)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		jobs, passes []float64
		peaks        []float64
		first        []string
		failures     []string
		failed       int
		evals        int
		parts        = map[string]time.Duration{}
	)
	start := time.Now()
	for n := 0; n < len(seeds) || time.Since(start) < cfg.dur; n++ {
		pass, i := n/len(seeds), n%len(seeds)
		if i == 0 {
			passes = append(passes, 0)
		}
		s := seeds[i]
		resetHWM()
		t0 := time.Now()
		r := regenerate(s, tr, int64(n+1))
		d := time.Since(t0)
		peaks = append(peaks, peakRSSMB())
		passes[pass] += d.Seconds()
		jobs = append(jobs, float64(d)/float64(time.Millisecond))
		evals += r.Evals
		for k, v := range r.Parts {
			parts[k] += v
		}
		bad := r.Checks
		if pass == 0 {
			first = append(first, r.Text)
		} else if r.Text != first[i] {
			bad = append(bad, fmt.Sprintf("seed %d: pass %d output differs from pass 0", s, pass))
		}
		if len(bad) > 0 {
			failed++
			failures = append(failures, fmt.Sprintf("seed %d: %v", s, bad))
		}
	}
	if len(jobs)%len(seeds) != 0 {
		passes = passes[:len(passes)-1] // wall_s counts whole passes only
	}
	elapsed := time.Since(start)

	t := tailOf(jobs)
	e2e := metrics{}
	e2e.set("setup_s", median(setups), "s")
	e2e.set("wall_s", median(passes), "s")
	e2e.set("job_p50_ms", median(jobs), "ms")
	e2e.set("job_tail_ms", t.Value, "ms")
	e2e.set("capacity_jobs_s", float64(len(jobs))/elapsed.Seconds(), "jobs/s")
	e2e.set("ok_ratio", float64(len(jobs)-failed)/float64(len(jobs)), "ratio")
	e2e.set("peak_rss_mb", median(peaks), "MiB")

	layers := zeroLayers()
	n := float64(len(jobs))
	layers.set("paper.table1_s", parts["paper.table1"].Seconds()/n, "s")
	layers.set("paper.sin_s", parts["paper.sin"].Seconds()/n, "s")
	layers.set("paper.gsl_s", parts["paper.gsl"].Seconds()/n, "s")
	layers.set("paper.figs_s", parts["paper.figs"].Seconds()/n, "s")
	layers.set("opt.evals", float64(evals)/n, "count")

	rep := map[string]any{
		"seeds":         seeds,
		"passes":        len(passes),
		"regenerations": len(jobs),
		"job":           "one seed's full §6 regeneration (paperrepro -all), default budgets and workers, one submitter",
		"wall":          "median over passes of one pass over the seed list",
		"setup":         "median of untimed warm-up regenerations at a seed outside the list: the paper workload has no server to set up",
		"peak_rss":      "median over regenerations of VmHWM, reset before each regeneration: the peak of one regeneration, steadier than the run's single highest",
		"capacity_base": map[string]any{"regenerations": len(jobs), "elapsed_s": elapsed.Seconds()},
		"ok_base":       map[string]int{"attempted": len(jobs), "failed": failed},
		"tail":          t,
		"setup_s":       setups,
		"digest":        digestText(first),
		"gate_failures": failures,
		"masked":        "Table 3 T (sec) column",
		"headline_gate": "Table 2: 8 conditions hit, 2^1024 pair unreached, 0 soundness violations; Table 3: bessel |Op|=23 |O|>=21, hyperg |Op|=8 |O|>0, airy |B|=2",
	}
	return outcome{Correct: failed == 0, Attempted: len(jobs), Failed: failed, E2E: e2e, Layers: layers, Report: rep}, nil
}

// serviceSpec is one service workload.
type serviceSpec struct {
	topo   topology
	params serviceParams
	build  func(root string, seed int64, p serviceParams, open time.Duration) (*traffic, error)
	// journal makes the traced run measure the journal layer on a
	// replay of the run's open-loop jobs.
	journal bool
}

// openUtilization is the share of a server's closed-loop capacity
// that the open-loop phase offers it: a light load, so a job's latency
// is its service time plus now and then a wait behind one other job.
// At 0.25 the jobs-hot tail spread 0.45 across five seeds: waits behind
// its heaviest jobs multiply the host's speed noise.
const openUtilization = 0.1

// Reference capacities: capacity_jobs_s medians of ten-seed, 30-second
// runs of this benchmark on a 2-vCPU Intel Xeon VM with Go 1.24. The
// open-loop rates are derived from them; every run reports the
// utilization its own capacity implies.
const (
	hotCapacityRef   = 505.0 // jobs-hot, one node
	fleetCapacityRef = 387.0 // jobs-cold's traffic through the fleet
)

var (
	// hotSpec serves jobs-hot without the journal: with it, the
	// default 4 MiB compaction stalls submissions for up to ~100 ms and
	// the acceptance fsync adds to every submission, which spread p50,
	// tail and capacity across seeds past their bounds. The traced run
	// measures the journal on a replay of the run's open-loop jobs instead.
	hotSpec = serviceSpec{topo: volatileNode, build: hotTraffic, journal: true,
		params: serviceParams{Rate: openUtilization * hotCapacityRef, Utilization: openUtilization, Evals: hotEvals}}
	// jobs-cold and fleet are sent the same traffic, rate included, so
	// the two systems are compared at equal offered load. The rate is
	// set against the slower of them, the fleet; one node runs the
	// same load at a lower utilization.
	coldSpec = serviceSpec{topo: volatileNode, build: coldBuild,
		params: serviceParams{Rate: openUtilization * fleetCapacityRef, Utilization: openUtilization,
			Templates: coldWorkingSet, Evals: 1, Inline: true}}
	fleetSpec = serviceSpec{topo: fleet, build: coldBuild, params: coldSpec.params}
)

// hotEvals is jobs-hot's evaluation budget per restart or round, against
// analysis defaults of 4000 to 6000. At this budget the traced replay
// puts the VM at about 0.45 of an analysis's time, below the 80-87% a
// probe of larger jobs found. At 300 it reaches about 0.72, but a job
// takes about 20 ms, two concurrent jobs fill both CPUs, and over five
// seeds capacity ranged from 74 to 164 jobs/s and p50 from 7 to 42 ms:
// too unsteady for a 25% bound.
const hotEvals = 30

// coldWorkingSet is the number of distinct inline programs jobs-cold
// and fleet draw from: three times the module cache, so one node's
// cache holds a third of it and each of the fleet's two workers about
// two thirds of its share.
const coldWorkingSet = 3 * pipeline.DefaultMaxModules

func coldBuild(_ string, seed int64, p serviceParams, open time.Duration) (*traffic, error) {
	return coldTraffic(seed, p, open)
}

// openShare is the share of a service run given to the open-loop
// phase; the closed-loop capacity phase takes the rest of the run.
const openShare = 0.6

// serviceWarmup is the untimed closed-loop phase between set-up and
// measurement.
const serviceWarmup = 2 * time.Second

// capacityWindow is the width of the windows the closed-loop phase's
// throughput is counted in; capacity is their median, so a burst of
// outside load moves one window, not the figure.
const capacityWindow = time.Second

// runService sets the service up, sends the open-loop schedule, runs
// the closed-loop capacity phase, and gates every result.
func runService(ctx context.Context, cfg config, spec serviceSpec, tr *tracer) (outcome, error) {
	openDur := time.Duration(float64(cfg.dur) * openShare)
	t, err := spec.build(cfg.root, cfg.seed, spec.params, openDur)
	if err != nil {
		return outcome{}, err
	}
	var pr *probes
	if tr != nil {
		pr = newProbes(tr, t)
	}
	conns := runtime.NumCPU()
	c := newClient(conns, tr)
	defer c.close()

	var sys *system
	var setups []float64
	for i := 0; i < serviceSetupRounds; i++ {
		t0 := time.Now()
		s, err := start(spec.topo, pr)
		if err != nil {
			return outcome{}, err
		}
		if !spec.params.Inline {
			err = registerAll(ctx, c, s.url, t.Register)
		}
		if err == nil {
			err = warm(ctx, c, s.url, t.Warm, spec.params.Inline)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			s.close()
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		if i < serviceSetupRounds-1 {
			s.close()
			continue
		}
		sys = s
	}
	defer sys.close()

	// A short closed-loop warm-up brings the heap, the caches and the
	// result paths to steady state before anything is timed.
	runClosed(ctx, c, sys.url, t, conns, serviceWarmup, 0, nil)
	s0, err := sys.stats(ctx, c)
	if err != nil {
		return outcome{}, err
	}
	pr.reset()
	mStart := time.Now()
	h := newHolder()
	openRes := runOpen(ctx, c, sys.url, t, h)
	closedRes := runClosed(ctx, c, sys.url, t, conns, cfg.dur-time.Since(mStart), len(t.Templates), h)
	// Peak memory is read before the correctness gate, which builds a
	// library pipeline and tree-engine programs of its own.
	rss := peakRSSMB()
	s1, err := sys.stats(ctx, c)
	if err != nil {
		return outcome{}, err
	}

	all := append(append([]*op(nil), openRes.Ops...), closedRes.Ops...)
	g, bad := gateService(ctx, t, all)
	var refused, errored int
	for _, o := range all {
		switch {
		case errors.Is(o.Err, errRefused):
			refused++
		case o.Err != nil:
			errored++
		}
	}
	failed := refused + errored + len(bad)

	var lat, read, late, own []float64
	for _, o := range openRes.Ops {
		if !o.Sent.IsZero() {
			late = append(late, float64(o.Sent.Sub(o.Due))/float64(time.Millisecond))
			own = append(own, float64(o.Sent.Sub(o.Free))/float64(time.Millisecond))
		}
		if o.Err == nil && !bad[o] {
			lat = append(lat, float64(o.latency())/float64(time.Millisecond))
			read = append(read, float64(o.readLatency())/float64(time.Millisecond))
		}
	}
	good := func(o *op) bool { return o.Err == nil && !bad[o] }
	closedOK := 0
	for _, o := range closedRes.Ops {
		if good(o) {
			closedOK++
		}
	}
	windows := closedRes.perWindow(capacityWindow, good)
	passes := closedRes.passTimes(len(t.Templates))
	capacity := median(windows)
	ownP99 := percentile(own, 99)
	tl := tailOf(lat)

	e2e := metrics{}
	e2e.set("setup_s", median(setups), "s")
	e2e.set("wall_s", median(passes), "s")
	e2e.set("job_p50_ms", median(lat), "ms")
	e2e.set("job_tail_ms", tl.Value, "ms")
	e2e.set("capacity_jobs_s", capacity, "jobs/s")
	e2e.set("ok_ratio", float64(len(all)-failed)/float64(len(all)), "ratio")
	e2e.set("peak_rss_mb", rss, "MiB")

	rep := map[string]any{
		"traffic": t.describe(),
		"job":     "one POST /v1/jobs submission (one to a few analyses over one program), timed from its due time until its last result is readable",
		"wall":    "median over whole passes of the closed-loop phase serving one pass of as many jobs as the pool holds, first send to last result",
		"pass_s":  passes,
		"utilization": map[string]float64{"offered_rate_jobs_s": t.Params.Rate, "capacity_jobs_s": capacity,
			"measured": ratio(t.Params.Rate, capacity), "reference": t.Params.Utilization},
		"peak_rss":    "VmHWM read after the closed-loop phase, before the correctness gate",
		"submitters":  conns,
		"connections": conns,
		"tail":        tl,
		"lateness_ms": map[string]float64{"p50": percentile(late, 50), "p99": percentile(late, 99), "max": percentile(late, 100),
			"own_p99": ownP99, "own_max": percentile(own, 100)},
		"lateness":      "send time minus due time; own: send time minus the moment the sender was free to send",
		"late_bound_ms": float64(lateBound) / float64(time.Millisecond),
		"completion": map[string]any{"end": "the job's finished time, as its done event reports it (ns resolution)",
			"detection":   "GET /v1/jobs/{id}/events, pushed by the service; one stream at a time, in submission order",
			"read_p50_ms": median(read), "read": "due time to the client's read of the done event, for comparison"},
		"capacity_base": map[string]any{"completed": closedOK, "attempted": len(closedRes.Ops), "elapsed_s": closedRes.Elapsed.Seconds(),
			"window_s": capacityWindow.Seconds(), "per_window": windows, "rule": "median over whole windows of jobs completed per second"},
		"ok_base": map[string]int{"attempted": len(all), "failed": failed, "refused": refused, "errored": errored, "gate": len(bad)},
		"setup_s": setups,
		"digest":  digestOps(openRes.Ops),
		"gate":    g,
		"masked":  "result duration fields",
	}
	out := outcome{Correct: failed == 0, Attempted: len(all), Failed: failed, E2E: e2e, Report: rep}
	if ownP99 > float64(lateBound)/float64(time.Millisecond) {
		return out, fmt.Errorf("%w: generator's own p99 lateness %.1f ms exceeds %v", errInvalid, ownP99, lateBound)
	}
	if tr != nil {
		out.Layers, rep["layer_bases"] = serviceLayers(ctx, t, tr, pr, s0, s1, mStart, openRes, all)
		if spec.journal {
			runDir := filepath.Join(cfg.root, ".bench_build", "run")
			if err := os.MkdirAll(runDir, 0o755); err != nil {
				return out, err
			}
			// The open-loop jobs are enough to time an append; replaying
			// the closed loop's thousands more would take minutes.
			appends, js, err := journalReplay(runDir, t, openRes.Ops, kept(all))
			if err != nil {
				return out, err
			}
			out.Layers.set("journal.append_us", meanUS(appends), "us")
			out.Layers.set("journal.syncs", float64(js.Syncs), "count")
			out.Layers.set("journal.bytes", float64(js.LogBytes+js.SnapshotBytes), "bytes")
			rep["journal"] = map[string]any{"source": "replay of the run's open-loop jobs through a DurableStore with default options",
				"appends": len(appends), "compactions": js.Compactions}
		}
	}
	return out, nil
}

// serviceLayers computes a traced service run's per-layer metrics from
// the /stats deltas, the spans recorded since mStart, and a replay of
// the distinct submissions through the library path, with the bases of
// its ratios.
func serviceLayers(ctx context.Context, t *traffic, tr *tracer, pr *probes, s0, s1 systemStats, mStart time.Time, openRes *openResult, all []*op) (metrics, map[string]any) {
	m := zeroLayers()
	bases := map[string]any{}
	cache := func(s systemStats) (hits, compiles float64) {
		nodes := s.Workers
		if len(nodes) == 0 {
			nodes = []nodeStats{s.Front}
		}
		for _, n := range nodes {
			hits += float64(n.Cache.Hits)
			compiles += float64(n.Cache.Compiles)
		}
		return hits, compiles
	}
	h0, c0 := cache(s0)
	h1, c1 := cache(s1)
	m.set("cache.compiles", c1-c0, "count")
	m.set("cache.hit_ratio", ratio(h1-h0, h1-h0+c1-c0), "ratio")
	bases["cache.hit_ratio"] = map[string]float64{"hits": h1 - h0, "lookups": h1 - h0 + c1 - c0}

	evals := 0.0
	for k, v := range s1.Front.EvalsByBackend {
		evals += float64(v - s0.Front.EvalsByBackend[k])
	}
	m.set("opt.evals", ratio(evals, float64(len(all))), "count")

	m.set("engine.queue_ms", meanMS(pr.queueTimes()), "ms")
	run := tr.durations("engine.run.node", mStart)
	if len(s1.Workers) > 0 {
		run = tr.durations("engine.run.worker", mStart)
		front := tr.durations("engine.run.front", mStart)
		m.set("cluster.hop_ms", meanMS(front)-meanMS(run), "ms")
		var wh0, wc0, wh1, wc1, maxRouted, sumRouted float64
		for i := range s1.Workers {
			wh0 += float64(s0.Workers[i].Cache.Hits)
			wc0 += float64(s0.Workers[i].Cache.Compiles)
			wh1 += float64(s1.Workers[i].Cache.Hits)
			wc1 += float64(s1.Workers[i].Cache.Compiles)
		}
		m.set("cluster.worker_hit_ratio", ratio(wh1-wh0, wh1-wh0+wc1-wc0), "ratio")
		bases["cluster.worker_hit_ratio"] = map[string]float64{"hits": wh1 - wh0, "lookups": wh1 - wh0 + wc1 - wc0}
		if s1.Front.Cluster != nil && s0.Front.Cluster != nil {
			for i, w := range s1.Front.Cluster.Workers {
				r := float64(w.Routed - s0.Front.Cluster.Workers[i].Routed)
				sumRouted += r
				maxRouted = max(maxRouted, r)
			}
			m.set("cluster.route_skew", ratio(maxRouted, sumRouted/float64(len(s1.Front.Cluster.Workers))), "ratio")
			bases["cluster.route_skew"] = map[string]float64{"max_routed": maxRouted, "routed": sumRouted,
				"workers": float64(len(s1.Front.Cluster.Workers))}
			m.set("cluster.requeued", float64(s1.Front.Cluster.Requeued-s0.Front.Cluster.Requeued), "count")
		}
	}
	m.set("engine.run_ms", meanMS(run), "ms")
	m.set("engine.shed", float64(s1.Front.Engine.Shed-s0.Front.Engine.Shed), "count")
	m.set("http.submit_ms", meanMS(tr.durations("http.submit", mStart)), "ms")
	// The closed loop reads each job's stream from its submission on, so
	// its read lag has no wait behind another job's stream.
	var lag []time.Duration
	for _, o := range all {
		if o.Job < 0 && o.Err == nil {
			lag = append(lag, o.Done.Sub(o.Ready))
		}
	}
	m.set("http.events_ms", meanMS(lag), "ms")
	kb := 0.0
	for _, o := range all {
		kb += float64(len(t.Templates[o.Tmpl].Body)) / 1024
	}
	m.set("http.req_kb", ratio(kb, float64(len(all))), "KiB")
	m.set("encode.result_us", meanUS(tr.durations("encode.result", mStart)), "us")

	var late []float64
	for _, o := range openRes.Ops {
		if !o.Sent.IsZero() {
			late = append(late, float64(o.Sent.Sub(o.Due))/float64(time.Millisecond))
		}
	}
	m.set("loadgen.late_ms", percentile(late, 99), "ms")
	m.set("loadgen.inflight_max", float64(inflightMax(openRes.Ops)), "count")

	seen := map[int]bool{}
	var tmpls []int
	for _, o := range all {
		if o.Err == nil && !seen[o.Tmpl] {
			seen[o.Tmpl] = true
			tmpls = append(tmpls, o.Tmpl)
		}
	}
	sort.Ints(tmpls)
	st := replay(ctx, t, tmpls, tr)
	st.metrics(m)
	bases["exec.share"] = map[string]float64{"exec_s": st.ExecTime.Seconds(), "analysis_s": st.AnalysisTime.Seconds(),
		"analyses": float64(st.Analyses), "evals": float64(st.Evals), "vm_entries": float64(st.Calls)}
	bases["opt.evals"] = map[string]float64{"evals": evals, "jobs": float64(len(all))}
	return m, bases
}
