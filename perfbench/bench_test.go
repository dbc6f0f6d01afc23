package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// TestTrafficDeterministic: a seed always generates the same traffic —
// programs, submissions, open-loop schedule and closed-loop sequence —
// and another seed generates different traffic.
func TestTrafficDeterministic(t *testing.T) {
	builders := map[string]func(int64) (*traffic, error){
		"jobs-hot": func(seed int64) (*traffic, error) {
			return hotTraffic("..", seed, hotSpec.params, 3*time.Second)
		},
		"jobs-cold": func(seed int64) (*traffic, error) {
			return coldTraffic(seed, coldSpec.params, 3*time.Second)
		},
	}
	for name, build := range builders {
		a, err := build(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different traffic on two builds", name)
		}
		c, err := build(8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(a.Open, c.Open) || reflect.DeepEqual(a.Templates, c.Templates) {
			t.Errorf("%s: seeds 7 and 8 generated the same traffic", name)
		}
		if len(a.Open) == 0 || len(a.Templates) != a.Params.Templates {
			t.Errorf("%s: %d arrivals, %d templates (want %d)", name, len(a.Open), len(a.Templates), a.Params.Templates)
		}
	}
}

// TestWorkingSetShape: the cold working set holds exactly one Go
// variant in goEvery programs, every source distinct, and the hot pool
// covers every program analysis.
func TestWorkingSetShape(t *testing.T) {
	cold, err := coldTraffic(3, coldSpec.params, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]bool{}
	goCount := 0
	for _, pr := range cold.Programs {
		srcs[pr.Source] = true
		if pr.Lang == "go" {
			goCount++
		}
	}
	if len(srcs) != len(cold.Programs) {
		t.Errorf("%d distinct sources among %d programs", len(srcs), len(cold.Programs))
	}
	if want := (len(cold.Programs) + goEvery - 1) / goEvery; goCount != want {
		t.Errorf("%d Go programs, want %d", goCount, want)
	}
	hot, err := hotTraffic("..", 3, hotSpec.params, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tm := range hot.Templates {
		for _, sp := range tm.Specs {
			seen[sp.Analysis] = true
		}
	}
	for _, a := range programAnalyses {
		if !seen[a] {
			t.Errorf("hot pool has no %s job", a)
		}
	}
}

// TestTailRule: the reported tail is the highest ladder percentile with
// at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // any order
		}
		got := tailOf(xs)
		if got.Percentile != c.want {
			t.Errorf("n=%d: tail p%v, want p%v", c.n, got.Percentile, c.want)
		}
		if got.Samples != c.n {
			t.Errorf("n=%d: %d samples reported", c.n, got.Samples)
		}
		// Exactly Beyond samples lie strictly above the reported value.
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above p%v, reported %d", c.n, above, got.Percentile, got.Beyond)
		}
	}
	for n := 20; n <= 3000; n++ {
		got := tailOf(make([]float64, n))
		if got.Beyond < tailMin {
			t.Fatalf("n=%d: p%v has %d beyond", n, got.Percentile, got.Beyond)
		}
		for _, p := range percentileLadder {
			if p <= got.Percentile {
				break
			}
			if beyond := n - nearestRank(p, n); beyond >= tailMin {
				t.Fatalf("n=%d: p%v has %d beyond but p%v was reported", n, p, beyond, got.Percentile)
			}
		}
	}
}

// TestGateRejectsTampering: the gate passes a served result equal to
// its library re-run, and fails both a served result with one byte
// changed and a report with one finding moved off its boundary.
func TestGateRejectsTampering(t *testing.T) {
	src := "func prog(x double) {\n    if (x <= 1.0) {\n        x = x + 1.0;\n    }\n    var y double = x * x;\n    if (y <= 4.0) {\n        x = x - 1.0;\n    }\n}\n"
	job := pipeline.Job{Source: src, Spec: analysis.Spec{Analysis: "bva", Seed: 3, Starts: 4, Evals: 2000}}
	lib := pipeline.New(1).RunJob(context.Background(), 0, job)
	rep, ok := lib.Report.(*analysis.BoundaryReport)
	if !ok || len(rep.Conditions) == 0 || len(rep.Conditions[0].Examples) == 0 {
		t.Fatalf("bva on fig2 found no boundary example: %+v", lib)
	}
	p, err := treeProgram(map[string]*rt.Program{}, job)
	if err != nil {
		t.Fatal(err)
	}
	served := mask(pipeline.MarshalResult(lib))
	if probs := checkResult(job, served, lib, p); len(probs) != 0 {
		t.Fatalf("untampered result fails the gate: %v", probs)
	}

	byteFlip := append([]byte(nil), served...)
	i := bytes.Index(byteFlip, []byte(`"Samples":`)) + len(`"Samples":`)
	byteFlip[i] ^= 1
	if probs := checkResult(job, byteFlip, lib, p); len(probs) == 0 {
		t.Error("a served result with one byte changed passes the gate")
	}

	rep.Conditions[0].Examples[0][0] += 0.25
	tampered := mask(pipeline.MarshalResult(lib))
	if probs := checkResult(job, tampered, lib, p); len(probs) == 0 {
		t.Error("a report with a finding moved off its boundary passes the gate")
	}
}

// TestColdFleetDigest: jobs-cold's traffic served by one node and by
// the coordinator over two workers yields the same masked results, and
// those results pass the correctness gate.
func TestColdFleetDigest(t *testing.T) {
	ctx := context.Background()
	tr, err := coldTraffic(9, coldSpec.params, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[topology]string{}
	for _, topo := range []topology{volatileNode, fleet} {
		s, err := start(topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(2, nil)
		res := runOpen(ctx, c, s.url, tr, newHolder())
		c.close()
		s.close()
		if g, bad := gateService(ctx, tr, res.Ops); len(bad) > 0 || g.Distinct == 0 {
			t.Fatalf("topology %d: gate: %+v", topo, g)
		}
		digests[topo] = digestOps(res.Ops)
	}
	if digests[volatileNode] != digests[fleet] {
		t.Errorf("node digest %s, fleet digest %s", digests[volatileNode], digests[fleet])
	}
}
