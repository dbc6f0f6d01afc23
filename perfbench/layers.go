package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/gofront"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// execCounter accumulates the VM entries of every wrapped program
// instance of one analysis run.
type execCounter struct {
	ns, evals, calls atomic.Int64
}

// wrapProgram returns p with its Run, RunBatch and NewInstance wrapped
// to count and time every VM entry, instances included.
func wrapProgram(p *rt.Program, c *execCounter) *rt.Program {
	q := *p
	run := p.Run
	q.Run = func(ctx *rt.Ctx, x []float64) {
		t0 := time.Now()
		run(ctx, x)
		c.ns.Add(int64(time.Since(t0)))
		c.evals.Add(1)
		c.calls.Add(1)
	}
	if rb := p.RunBatch; rb != nil {
		q.RunBatch = func(mons []rt.Monitor, xs [][]float64, out []float64) {
			t0 := time.Now()
			rb(mons, xs, out)
			c.ns.Add(int64(time.Since(t0)))
			c.evals.Add(int64(len(xs)))
			c.calls.Add(1)
		}
	}
	if ni := p.NewInstance; ni != nil {
		q.NewInstance = func() *rt.Program { return wrapProgram(ni(), c) }
	}
	return &q
}

// clockCost measures the cost of the timing pair wrapProgram adds to
// each VM entry, so it can be taken out of the VM's time.
func clockCost() time.Duration {
	const n = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		sink += time.Since(s)
	}
	_ = sink
	return time.Since(t0) / n
}

// replayStats are the per-layer figures of the library-path replay.
type replayStats struct {
	Parse, Check, Lower, GoFront, Compile, Hit []time.Duration
	Analyses                                   int
	AnalysisTime, ExecTime                     time.Duration
	Evals, Calls                               int64
	Self                                       []time.Duration
}

// replay re-runs the distinct served submissions through the library
// path with spans around each layer: the frontends and flat-code
// compiler over each distinct source, a module-cache miss then a timed
// hit, and each analysis on a wrapped program counting VM entries.
// Analyses run serially (workers = 1) so the VM's share of an analysis
// is a share of one thread's time.
func replay(ctx context.Context, t *traffic, tmpls []int, tr *tracer) *replayStats {
	st := &replayStats{}
	cost := clockCost()
	cache := pipeline.NewModuleCache()
	compiled := map[string]bool{}
	for _, tmpl := range tmpls {
		tm := t.Templates[tmpl]
		root := tr.add("replay.job", int64(tmpl)+1, tmpl, 0, time.Now(), time.Now())
		pr := t.Programs[tm.Prog]
		lg, _ := gofront.ParseLang(pr.Lang)
		if !compiled[pr.Source] {
			compiled[pr.Source] = true
			st.frontend(tr, tmpl, root, lg, pr.Source)
		}
		if _, _, err := cache.Program(lg, pr.Source, pr.Func, interp.DefaultEngine); err != nil {
			continue
		}
		h0 := time.Now()
		p, hit, err := cache.Program(lg, pr.Source, pr.Func, interp.DefaultEngine)
		h1 := time.Now()
		if err != nil || !hit {
			continue
		}
		tr.add("cache.hit", int64(tmpl)+1, tmpl, root, h0, h1)
		st.Hit = append(st.Hit, h1.Sub(h0))
		for _, sp := range tm.Specs {
			a, err := analysis.Lookup(sp.Analysis)
			if err != nil {
				continue
			}
			var c execCounter
			in := analysis.Input{Program: wrapProgram(p.Instance(), &c)}
			sp.Workers = 1
			sp.Bounds, _ = opt.BroadcastBounds(sp.Bounds, p.Dim)
			a0 := time.Now()
			_, _ = a.Run(ctx, in, sp)
			a1 := time.Now()
			tr.add("analysis."+sp.Analysis, int64(tmpl)+1, tmpl, root, a0, a1)
			exec := time.Duration(c.ns.Load() - c.calls.Load()*int64(cost))
			exec = max(exec, 0)
			st.Analyses++
			st.AnalysisTime += a1.Sub(a0)
			st.ExecTime += exec
			st.Evals += c.evals.Load()
			st.Calls += c.calls.Load()
			st.Self = append(st.Self, a1.Sub(a0)-exec)
		}
	}
	return st
}

// frontend times each frontend stage and the flat-code compiler over
// one source.
func (st *replayStats) frontend(tr *tracer, tmpl int, parent int64, lg gofront.Lang, src string) {
	job := int64(tmpl) + 1
	var mod *ir.Module
	if lg == gofront.LangGo {
		t0 := time.Now()
		m, err := gofront.Compile("", src)
		t1 := time.Now()
		if err != nil {
			return
		}
		tr.add("gofront.compile", job, tmpl, parent, t0, t1)
		st.GoFront = append(st.GoFront, t1.Sub(t0))
		mod = m
	} else {
		t0 := time.Now()
		f, err := lang.Parse(src)
		t1 := time.Now()
		if err != nil {
			return
		}
		err = lang.Check(f)
		t2 := time.Now()
		if err != nil {
			return
		}
		m, err := ir.Lower(f)
		t3 := time.Now()
		if err != nil {
			return
		}
		tr.add("lang.parse", job, tmpl, parent, t0, t1)
		tr.add("lang.check", job, tmpl, parent, t1, t2)
		tr.add("ir.lower", job, tmpl, parent, t2, t3)
		st.Parse = append(st.Parse, t1.Sub(t0))
		st.Check = append(st.Check, t2.Sub(t1))
		st.Lower = append(st.Lower, t3.Sub(t2))
		mod = m
	}
	t0 := time.Now()
	_, err := compile.Compile(mod)
	t1 := time.Now()
	if err == nil {
		tr.add("compile.compile", job, tmpl, parent, t0, t1)
		st.Compile = append(st.Compile, t1.Sub(t0))
	}
}

// metrics returns the replay's per-layer metrics.
func (st *replayStats) metrics(m metrics) {
	m.set("lang.parse_us", meanUS(st.Parse), "us")
	m.set("lang.check_us", meanUS(st.Check), "us")
	m.set("ir.lower_us", meanUS(st.Lower), "us")
	m.set("gofront.compile_us", meanUS(st.GoFront), "us")
	m.set("compile.compile_us", meanUS(st.Compile), "us")
	m.set("cache.hit_us", meanUS(st.Hit), "us")
	m.set("exec.evals", ratio(float64(st.Evals), float64(st.Analyses)), "count")
	m.set("exec.ns_per_eval", ratio(float64(st.ExecTime), float64(st.Evals)), "ns")
	m.set("exec.share", ratio(float64(st.ExecTime), float64(st.AnalysisTime)), "ratio")
	m.set("exec.lanes_mean", ratio(float64(st.Evals), float64(st.Calls)), "count")
	m.set("search.self_ms", meanMS(st.Self), "ms")
}
