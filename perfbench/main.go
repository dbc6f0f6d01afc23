// Command perfbench is the repository benchmark. It runs one named
// workload in one process against the repro packages, at a seed given
// on the command line, measures it for a fixed time, checks that every
// output is correct, and prints its metrics by name with their units.
//
//	perfbench -workload jobs-hot -seed 1 -seconds 10 -trace 0
//
// Workloads:
//
//   - paper: regenerates the §6 evaluation (Tables 1-5, Figs 3/4/7/9)
//     for a seed list derived from the run seed, closed loop. All of its
//     work is search, monitors and native ports: the control for the
//     frontend, VM, cache, HTTP and journal layers.
//   - jobs-hot: open-loop Poisson /v1 traffic, then a closed-loop
//     capacity phase, against an in-process fpserve without a journal
//     whose module cache holds every program: the steady-state service
//     path. The traced run measures the journal on a replay of the
//     run's open-loop jobs.
//   - jobs-cold: the same arrival process against a volatile server,
//     every job carrying inline source from a working set several times
//     the module cache: the frontend and compile path.
//   - fleet: jobs-cold's traffic through a coordinator in front of two
//     workers: the only workload that runs internal/cluster.
//
// BENCHMARK.json runs paper, jobs-hot and fleet; jobs-cold, fleet's
// single-node baseline, is run by name.
//
// With -trace 1 the workload runs untraced and then traced, with spans
// around the benchmark's calls into each layer, and the per-layer
// metrics are printed with the tracing overhead. The spans are written
// under .bench_build/traces when the run ends.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is one pass of a workload.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	E2E       metrics
	Layers    metrics
	Report    map[string]any
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// errInvalid marks a run whose measurement is not the program's: the
// load generator fell behind its schedule.
var errInvalid = errors.New("invalid run")

func main() {
	workload := flag.String("workload", "", "workload: paper, jobs-hot, jobs-cold or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	root := flag.String("root", ".", "repository root")
	spinOnly := flag.Bool("spin", false, "run as the idle CPU spinner (internal)")
	flag.Parse()
	if *spinOnly {
		spin()
		return
	}

	if err := checkRoot(*root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{root: *root, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	ctx := context.Background()
	pin := "idle spinner (SCHED_IDLE) on every CPU"
	sp, err := startSpinner()
	if err != nil {
		pin = "none: " + err.Error()
	}
	stopSpinner = sp.stop
	defer sp.stop()
	if sp != nil {
		time.Sleep(rampWait)
	}

	total0, steal0 := cpuTimes()
	untraced, err := run(ctx, cfg, nil)
	if err != nil {
		fail(err, untraced)
	}
	total1, steal1 := cpuTimes()
	final := untraced
	report := map[string]any{"host": hostMeta(*root), "cpu_pin": pin, "workload": *workload, "seed": *seed,
		"seconds": *seconds, "trace": *trace, "untraced": untraced.Report,
		"steal_share": ratio(steal1-steal0, total1-total0)}
	if *trace == 1 {
		tr := newTracer()
		// The traced pass reports its own peak memory, not the
		// untraced pass's.
		resetPeakRSS()
		traced, err := run(ctx, cfg, tr)
		if err != nil {
			fail(err, traced)
		}
		path := filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-%d.json", *workload, *seed))
		if err := tr.write(path); err != nil {
			fail(fmt.Errorf("writing spans: %w", err), traced)
		}
		report["traced"] = traced.Report
		report["traced_e2e"] = traced.E2E
		report["trace_overhead"] = overhead(untraced.E2E, traced.E2E)
		report["spans"] = path
		final = outcome{
			Correct:   untraced.Correct && traced.Correct,
			Attempted: untraced.Attempted + traced.Attempted,
			Failed:    untraced.Failed + traced.Failed,
			E2E:       untraced.E2E,
			Layers:    traced.Layers,
		}
	}
	report["end_to_end"] = final.E2E
	b, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(b))
	out := final.E2E
	if *trace == 1 {
		out = final.Layers
	}
	for _, name := range sortedNames(out) {
		fmt.Printf("%-26s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	b, _ = json.Marshal(result{Correct: final.Correct, Attempted: final.Attempted, Failed: final.Failed, Metrics: out})
	fmt.Println(string(b))
	if !final.Correct {
		sp.stop()
		os.Exit(1)
	}
}

// stopSpinner stops the idle spinner before an early exit.
var stopSpinner = func() {}

// fail reports err, with whatever the failed pass measured, on
// standard error and exits without a result line.
func fail(err error, o outcome) {
	if o.Report != nil {
		b, _ := json.Marshal(map[string]any{"report": o.Report, "end_to_end": o.E2E})
		fmt.Fprintln(os.Stderr, string(b))
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	stopSpinner()
	if errors.Is(err, errInvalid) {
		os.Exit(3)
	}
	os.Exit(1)
}

// config is what every workload receives.
type config struct {
	root string
	seed int64
	dur  time.Duration
}

// workloads maps each workload name to its runner. A runner with a
// non-nil tracer records spans and fills the per-layer metrics.
var workloads = map[string]func(context.Context, config, *tracer) (outcome, error){
	"paper": runPaper,
	"jobs-hot": func(ctx context.Context, c config, tr *tracer) (outcome, error) {
		return runService(ctx, c, hotSpec, tr)
	},
	"jobs-cold": func(ctx context.Context, c config, tr *tracer) (outcome, error) {
		return runService(ctx, c, coldSpec, tr)
	},
	"fleet": func(ctx context.Context, c config, tr *tracer) (outcome, error) {
		return runService(ctx, c, fleetSpec, tr)
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkRoot requires the repository sources the benchmark builds from.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "internal", "testdata"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not the repository root: %v", root, err)
		}
	}
	return nil
}

// overhead is traced minus untraced for every end-to-end metric, with
// its share of the untraced value.
func overhead(untraced, traced metrics) map[string]any {
	out := map[string]any{}
	for name, u := range untraced {
		t := traced[name]
		out[name] = map[string]float64{"delta": t.Value - u.Value, "share": ratio(t.Value-u.Value, u.Value)}
	}
	return out
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes reads the machine's CPU time from /proc/stat, in clock
// ticks: the total over every state, and the part the hypervisor gave
// to other guests (steal). The untraced pass's steal share goes into
// the report, so a run the host slowed can be told from a slow program.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// resetPeakRSS returns the memory the last pass freed to the system and
// resets the process's VmHWM to what stays resident.
func resetPeakRSS() {
	debug.FreeOSMemory()
	resetHWM()
}

// resetHWM resets the process's VmHWM to its current resident set.
func resetHWM() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// rampWait is how long a run waits, with the idle spinner holding
// every CPU busy, before it sets up: the virtual CPUs this benchmark
// was tuned on run slower for the first seconds of load after idling.
const rampWait = 3 * time.Second

// setupRounds and serviceSetupRounds are how many times a paper run
// and a service run set up; setup_s is their median. A service set-up
// takes tens of milliseconds, so it repeats more often.
const (
	setupRounds        = 7
	serviceSetupRounds = 21
)
