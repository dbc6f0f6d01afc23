package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/journal"
	"repro/internal/pipeline"
)

// journalReplay writes the journal records a durable fpserve would
// have written for ops — each submission durably, then its start, its
// results and its terminal record — to a fresh pipeline.DurableStore
// under dir with the default options, timing every append. The served
// jobs-hot path runs without the journal (see hotSpec), so the journal
// layer is measured here, on the run's own job stream. Each job's
// results are its template's kept copy (see op.settle).
func journalReplay(dir string, t *traffic, ops []*op, results map[int][]json.RawMessage) (appends []time.Duration, st journal.Stats, err error) {
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, st, err
	}
	defer os.RemoveAll(jdir)
	store, err := pipeline.OpenStore(jdir, journal.Options{})
	if err != nil {
		return nil, st, fmt.Errorf("opening journal: %w", err)
	}
	defer store.Close()
	timed := func(fn func() error) error {
		t0 := time.Now()
		err := fn()
		appends = append(appends, time.Since(t0))
		return err
	}
	for i, o := range ops {
		if o.Err != nil {
			continue
		}
		id := fmt.Sprintf("job-%d", i+1)
		jobs := t.libraryJobs(o.Tmpl)
		steps := []func() error{
			func() error { return store.JobSubmitted(id, jobs, 0, o.Sent) },
			func() error { return store.JobStarted(id) },
		}
		for k, r := range results[o.Tmpl] {
			k, r := k, r
			steps = append(steps, func() error { return store.ResultAppended(id, k, json.RawMessage(r)) })
		}
		steps = append(steps, func() error { return store.JobTerminal(id, pipeline.JobCompleted, "", o.Done) })
		for _, step := range steps {
			if err := timed(step); err != nil {
				return appends, st, fmt.Errorf("journal replay of %s: %w", id, err)
			}
		}
	}
	return appends, store.Stats(), nil
}
