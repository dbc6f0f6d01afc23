// Command fpserve is the batched analysis service: an HTTP front end
// over the analysis registry and job pipeline.
//
// The versioned /v1 API is resource-oriented and asynchronous: register
// FPL programs once under their content address, submit job batches
// referencing them (or inline source), poll or stream results, and
// cancel jobs mid-minimization — cancellation reaches the MO backends
// within one objective evaluation. Errors are application/problem+json
// with field-level spec-validation details. GET /stats and GET /healthz
// are the operational endpoints. See docs/api.md for the endpoint
// reference.
//
// Usage:
//
//	fpserve -addr :8035 -jobs 8
//
//	curl -s -X POST http://localhost:8035/v1/programs -d '{
//	    "source": "func prog(x double) { if (x < 1.0) { x = x * x; } }"}'
//	curl -s -X POST http://localhost:8035/v1/jobs -d '{
//	    "program": "sha256:<id from above>",
//	    "specs": [{"analysis": "coverage", "seed": 1},
//	              {"analysis": "overflow", "seed": 1}]}'
//	curl -s http://localhost:8035/v1/jobs/job-1
//	curl -s -N http://localhost:8035/v1/jobs/job-1/events
//	curl -s -X DELETE http://localhost:8035/v1/jobs/job-1
//
// With -data-dir the job table is durable: every accepted job is
// journaled before its 202, and on boot the journal is replayed —
// finished jobs come back with their results, jobs a crash caught
// running are re-executed from their last durable result (results are
// content-deterministic, so the recovered output is identical to an
// uninterrupted run's).
//
// With -coordinator the node executes nothing locally: it fans each
// job batch over a fleet of fpserve workers (-workers host:port,... or
// -fleet file), routing jobs by the consistent hash of their program's
// content address so worker module caches stay hot. Workers that stop
// answering health probes leave the ring and their unfinished jobs are
// requeued onto survivors; results are byte-identical to a single-node
// run either way. See docs/api.md ("Coordinator mode").
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting jobs, cancels in-flight job contexts (which land inside the
// minimizers within one objective evaluation), drains connections up to
// -drain, journals a clean-shutdown marker, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux only)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/pipeline"
)

func main() {
	var (
		addr  = flag.String("addr", ":8035", "listen address")
		jobs  = flag.Int("jobs", 0, "concurrent analysis jobs across all requests (0 = all CPUs)")
		ttl   = flag.Duration("job-ttl", pipeline.DefaultJobTTL, "retention of finished jobs")
		table = flag.Int("job-table", pipeline.DefaultMaxTrackedJobs, "max tracked jobs")
		drain = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")

		dataDir   = flag.String("data-dir", "", "journal directory for a durable job table (empty = volatile)")
		syncEvery = flag.Duration("sync-every", journal.DefaultSyncEvery, "journal group-commit interval")
		compact   = flag.Int64("compact-bytes", journal.DefaultCompactBytes, "journal size that triggers snapshot+compact")
		inflight  = flag.Int("max-inflight", 0, "load-shedding watermark on accepted-but-unfinished jobs (0 = unlimited)")
		backlog   = flag.Int64("journal-backlog", pipeline.DefaultStoreBacklog, "load-shedding watermark on unsynced journal bytes")
		retry     = flag.Duration("retry-after", pipeline.DefaultRetryAfter, "Retry-After hint on 429 load-shedding refusals")
		heartbeat = flag.Duration("heartbeat", 15*time.Second, "SSE heartbeat interval on /v1 job event streams (0 disables)")
		pprofAddr = flag.String("pprof", "", "expose net/http/pprof on this side listener, e.g. localhost:6060 (empty = disabled)")

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator: fan job batches over -workers instead of executing locally")
		workers     = flag.String("workers", "", "comma-separated fpserve workers (host:port,...) for -coordinator")
		fleet       = flag.String("fleet", "", "file listing one fpserve worker per line (comments with #) for -coordinator")
		probeEvery  = flag.Duration("probe-every", cluster.DefaultProbeEvery, "worker health-probe interval in -coordinator mode")
		deadAfter   = flag.Int("dead-after", cluster.DefaultDeadAfter, "consecutive failed probes before a worker leaves the ring")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "fpserve: unexpected arguments:", flag.Args())
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// Profiling stays off the public address: the pprof import
		// registers on http.DefaultServeMux, which only this side
		// listener serves — the main server below uses its own mux.
		go func() {
			log.Printf("fpserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("fpserve: pprof listener: %v", err)
			}
		}()
	}

	srv := pipeline.NewServer(*jobs)
	srv.Engine.TTL = *ttl
	srv.Engine.MaxTrackedJobs = *table
	srv.Engine.MaxInFlight = *inflight
	srv.Engine.RetryAfter = *retry
	srv.Engine.Logf = log.Printf
	srv.Heartbeat = *heartbeat
	srv.Logf = log.Printf
	srv.PL.PanicHook = func(idx int, j pipeline.Job, v any, stack []byte) {
		log.Printf("fpserve: job panic (job index %d, analysis %q): %v\n%s", idx, j.Spec.Analysis, v, stack)
	}

	// Coordinator mode installs the fleet Runner BEFORE journal
	// recovery: jobs a crash caught running are then re-executed across
	// the fleet, not on this node's local pipeline.
	var coord *cluster.Coordinator
	if *coordinator {
		members, err := fleetMembers(*workers, *fleet)
		if err != nil {
			log.Fatalf("fpserve: %v", err)
		}
		coord, err = cluster.New(cluster.Config{
			Workers:    members,
			ProbeEvery: *probeEvery,
			DeadAfter:  *deadAfter,
			Seed:       time.Now().UnixNano(),
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("fpserve: %v", err)
		}
		coord.Start()
		srv.Engine.Runner = coord.Run
		srv.Engine.AdmitHook = coord.Admit
		srv.ClusterStats = coord.StatsDoc
		log.Printf("fpserve: coordinating %d workers: %s", len(members), strings.Join(members, ", "))
	} else if *workers != "" || *fleet != "" {
		log.Fatalf("fpserve: -workers/-fleet require -coordinator")
	}

	var store *pipeline.DurableStore
	if *dataDir != "" {
		var err error
		store, err = pipeline.OpenStore(*dataDir, journal.Options{
			SyncEvery:    *syncEvery,
			CompactBytes: *compact,
		})
		if err != nil {
			log.Fatalf("fpserve: opening journal under %s: %v", *dataDir, err)
		}
		srv.Engine.Store = store
		srv.Engine.MaxStoreBacklog = *backlog
		recovered := store.Recovered()
		switch {
		case store.BootRecords() == 0:
			log.Printf("fpserve: journal %s: initialized", *dataDir)
		case store.CleanShutdown():
			log.Printf("fpserve: journal %s: clean shutdown, %d jobs restored", *dataDir, len(recovered))
		default:
			log.Printf("fpserve: journal %s: unclean shutdown (%d torn bytes truncated), %d jobs to recover",
				*dataDir, store.TruncatedBytes(), len(recovered))
		}
		restored, requeued := srv.Engine.Recover(recovered)
		if restored > 0 {
			log.Printf("fpserve: recovered %d jobs (%d requeued for re-execution)", restored, requeued)
		}
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-header connections must not pin goroutines forever on a
		// long-running service. (No WriteTimeout: SSE streams run for as
		// long as their jobs do.)
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("fpserve listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("fpserve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("fpserve: shutting down (drain %v)", *drain)

	sd, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting jobs and cancel in-flight job contexts first: the
	// handlers streaming those jobs finish promptly, so the HTTP drain
	// below converges instead of waiting on hour-long minimizations. A
	// complete drain also journals the clean-shutdown marker, so the
	// next boot knows it need not requeue anything.
	if err := srv.Shutdown(sd); err != nil {
		log.Printf("fpserve: job engine drain: %v", err)
	}
	if err := hs.Shutdown(sd); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("fpserve: http drain: %v", err)
	}
	if coord != nil {
		coord.Close()
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("fpserve: closing journal: %v", err)
		}
	}
	log.Printf("fpserve: shutdown complete")
}

// fleetMembers merges the -workers list and the -fleet file into the
// worker set for coordinator mode.
func fleetMembers(workers, fleetFile string) ([]string, error) {
	var members []string
	for _, w := range strings.Split(workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			members = append(members, w)
		}
	}
	if fleetFile != "" {
		data, err := os.ReadFile(fleetFile)
		if err != nil {
			return nil, fmt.Errorf("reading fleet file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if line = strings.TrimSpace(line); line != "" {
				members = append(members, line)
			}
		}
	}
	if len(members) == 0 {
		return nil, errors.New("-coordinator needs workers (-workers host:port,... or -fleet file)")
	}
	return members, nil
}
