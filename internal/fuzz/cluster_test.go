package fuzz_test

import (
	"strings"
	"testing"

	"repro/internal/fuzz"
)

// TestClusterCampaignClean runs a small dead-worker campaign: with the
// busiest worker killed mid-batch, every job must complete on the
// survivor with results byte-identical to the single-node run, and the
// failover must show up in the requeue counter.
func TestClusterCampaignClean(t *testing.T) {
	res := fuzz.RunCluster(fuzz.ClusterOptions{
		Seed: 1, Programs: 3, Evals: 80, Logf: t.Logf,
	})
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("%s", v.Detail)
		}
	}
	if res.Workers != 2 || res.Jobs != 3 {
		t.Errorf("campaign shape: %s", res.Summary())
	}
	if res.Requeued == 0 {
		t.Errorf("kill produced no requeues: %s", res.Summary())
	}
}

// TestClusterCampaignSelfTest proves the oracle has teeth: a tampered
// golden expectation must surface as a violation.
func TestClusterCampaignSelfTest(t *testing.T) {
	res := fuzz.RunCluster(fuzz.ClusterOptions{
		Seed: 2, Programs: 2, Evals: 60, Tamper: true,
	})
	if res.Ok() {
		t.Fatal("tampered expectation produced no violations — the oracle is blind")
	}
	found := false
	for _, v := range res.Violations {
		if v.Layer == "cluster" && strings.Contains(v.Detail, "differs from the single-node run") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations do not include a divergence report: %+v", res.Violations)
	}
}
