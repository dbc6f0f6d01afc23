package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/fplgen"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/pipeline"
)

// program is one analysable function the traffic runs jobs over.
type program struct {
	Lang   string // "fpl" or "go"
	Source string
	Func   string
	Dim    int
	// Path is a decision sequence one concrete execution realizes: the
	// target of the program's reach jobs (empty when the sampled run
	// decides no branch).
	Path []instrument.Decision
}

// template is one POST /v1/jobs submission: one to a few analyses over
// one program.
type template struct {
	Prog  int
	Specs []analysis.Spec
	// Body is the request body, built once so the load generator only
	// sends bytes.
	Body []byte
}

// arrival is one open-loop submission: due at Due after the phase
// starts, carrying template Tmpl.
type arrival struct {
	Due  time.Duration
	Tmpl int
}

// serviceParams are a service workload's fixed parameters.
type serviceParams struct {
	// Rate is the open-loop offered rate in jobs per second.
	Rate float64 `json:"offered_rate_jobs_s"`
	// Utilization is the share of the reference capacity Rate offers.
	Utilization float64 `json:"offered_utilization"`
	// Templates is the number of distinct submissions (hot: the job
	// pool, hotCopies per program and program analysis; cold and fleet:
	// the working set of inline programs, one in goEvery a Go variant).
	Templates int `json:"templates"`
	// Evals is the per-restart or per-round evaluation budget.
	Evals int `json:"evals"`
	// Inline makes every job carry its source instead of referencing a
	// registered program.
	Inline bool `json:"inline"`
}

// traffic is everything a service workload sends, derived from the
// seed alone.
type traffic struct {
	Params    serviceParams
	Programs  []program
	Templates []template
	// Register lists the programs registered during set-up (hot only):
	// one registration per distinct source.
	Register []program
	// Warm lists the programs the set-up warm-up runs one job on.
	Warm []program
	Open []arrival
	// Closed is the template sequence the closed-loop submitters take
	// in order.
	Closed []int
}

// closedLen bounds the closed-loop sequence; submitters wrap around it.
const closedLen = 1 << 14

// seedStream derives an independent random stream for one purpose, so
// changing how one stream is drawn never shifts another.
func seedStream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose*7_919))
}

// hotTraffic builds the jobs-hot traffic: the lifted GSL corpus and
// the FPL fixtures, registered once, and a seeded pool of submissions
// over them drawn with repeats.
func hotTraffic(root string, seed int64, p serviceParams, open time.Duration) (*traffic, error) {
	progs, err := corpusPrograms(lift.CombinedSource(), seed)
	if err != nil {
		return nil, err
	}
	fixtures, err := fixturePrograms(root, seed)
	if err != nil {
		return nil, err
	}
	progs = append(progs, fixtures...)
	t := &traffic{Programs: progs, Warm: progs}
	seen := map[string]bool{}
	for _, pr := range progs {
		if !seen[pr.Source] {
			seen[pr.Source] = true
			t.Register = append(t.Register, pr)
		}
	}
	rng := seedStream(seed, 1)
	// The pool's make-up is the same at every seed: each program leads
	// hotCopies submissions per program analysis (every other one
	// carrying a second analysis). The seed draws the analysis seeds and
	// reach targets; the copies average out how far each seed's search
	// runs.
	for c := 0; c < hotCopies; c++ {
		for pi := range progs {
			for k, lead := range programAnalyses {
				list := []string{lead}
				if (c+pi+k)%2 == 1 {
					list = append(list, programAnalyses[(k+1+(c+pi)%4)%len(programAnalyses)])
				}
				t.Templates = append(t.Templates, hotTemplate(rng, pi, progs[pi], list, p.Evals))
			}
		}
	}
	p.Templates = len(t.Templates)
	t.Params = p
	t.finish(seed, open, true)
	return t, nil
}

// hotCopies is how many submissions each program and program analysis
// lead in the jobs-hot pool.
const hotCopies = 4

// programAnalyses are the analyses that run over a program. The sixth,
// xsat, runs over a formula and is held out of the traffic: on an
// fplgen formula without variables, such as "1 < 0", the service serves
// an error result (the search reports an infinite weak distance, which
// the wire encoding cannot carry), so xsat traffic would fail the
// correctness gate at every seed that draws one. It joins the pool when
// that is fixed.
var programAnalyses = []string{"bva", "coverage", "overflow", "nan", "reach"}

// hotTemplate builds one pool submission of the listed analyses over
// program pi: the analysis defaults with a reduced evaluation budget;
// lanes and workers stay unset so changes to their defaults show. A
// program whose sampled run decides no branch has no reach target and
// runs coverage instead.
func hotTemplate(rng *rand.Rand, pi int, pr program, list []string, evals int) template {
	tm := template{Prog: pi}
	for _, a := range list {
		sp := analysis.Spec{Analysis: a, Seed: rng.Int63n(1 << 30), Evals: evals}
		if a == "reach" {
			if len(pr.Path) == 0 {
				sp.Analysis = "coverage"
			}
			sp.Path = pr.Path
		}
		tm.Specs = append(tm.Specs, sp)
	}
	return tm
}

// coldTraffic builds the jobs-cold (and fleet) traffic: a seeded
// working set of distinct inline programs, several times the module
// cache, mostly fplgen FPL modules plus Go-subset variants of the
// lifted corpus, each with minimal-budget analyses.
func coldTraffic(seed int64, p serviceParams, open time.Duration) (*traffic, error) {
	corpus := lift.CombinedSource()
	base, err := corpusPrograms(corpus, seed)
	if err != nil {
		return nil, err
	}
	t := &traffic{Params: p}
	rng := seedStream(seed, 2)
	for i := 0; i < p.Templates; i++ {
		pr, err := coldProgram(rng, corpus, base, i%goEvery == 0)
		if err != nil {
			return nil, fmt.Errorf("generated program %d: %w", i, err)
		}
		t.Programs = append(t.Programs, pr)
		t.Templates = append(t.Templates, coldTemplate(rng, len(t.Programs)-1, pr, p.Evals))
	}
	// The warm-up runs programs outside the working set: one Go variant
	// and a few FPL modules.
	wrng := seedStream(seed, 8)
	for i := 0; i < 7; i++ {
		pr, err := coldProgram(wrng, corpus, base, i == 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up program %d: %w", i, err)
		}
		t.Warm = append(t.Warm, pr)
	}
	t.finish(seed, open, false)
	return t, nil
}

// goEvery places a Go-subset program at every goEvery-th slot of the
// cold working set, so its share is the same at every seed. One in five
// gives the two frontends about equal weight: a Go-corpus compile
// costs about 6 ms and a whole FPL job about 2 ms, so the Go jobs carry
// about half of the work and both frontends move capacity_jobs_s. It
// also keeps p50 among the FPL jobs and the p90 tail among the Go jobs,
// away from the boundary between the two.
const goEvery = 5

// coldProgram draws one inline program: a Go-subset variant of a
// lifted-corpus function, or an fplgen FPL module.
func coldProgram(rng *rand.Rand, corpus string, base []program, goVariant bool) (program, error) {
	if goVariant {
		// A seeded edit makes the bytes distinct (a module-cache miss)
		// while the frontend still lifts the whole corpus.
		pr := base[rng.Intn(len(base))]
		pr.Source = fmt.Sprintf("%s\nfunc benchVariant(x float64) float64 {\n\treturn x*%d + %d\n}\n",
			corpus, 1+rng.Intn(1_000_000), rng.Intn(1000))
		return pr, nil
	}
	g := &fplgen.Generator{Config: fplgen.Config{Params: 1 + rng.Intn(3)}}
	return compiledProgram(gofront.LangFPL, g.Module(rng), "f", rng)
}

// coldTemplate draws one or two analyses over program pi at minimal
// budgets: the smallest value every budget knob accepts (evals per
// start or round, starts, rounds, stall rounds, retries), so the
// frontends, the compiler and the cache dominate the job.
func coldTemplate(rng *rand.Rand, pi int, pr program, evals int) template {
	tm := template{Prog: pi}
	used := map[string]bool{}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		a := []string{"bva", "coverage", "overflow", "nan", "reach"}[rng.Intn(5)]
		if a == "reach" && len(pr.Path) == 0 {
			a = "coverage"
		}
		if used[a] {
			continue
		}
		used[a] = true
		sp := analysis.Spec{Analysis: a, Seed: rng.Int63n(1 << 30), Evals: evals}
		switch a {
		case "bva":
			sp.Starts = 1
		case "coverage":
			sp.Stall = 1
		case "overflow", "nan":
			sp.Rounds, sp.Retries = 1, 1
		case "reach":
			sp.Starts, sp.Path = 1, pr.Path
		}
		tm.Specs = append(tm.Specs, sp)
	}
	return tm
}

// finish draws the open-loop Poisson schedule and the closed-loop
// sequence, and encodes every template's request body. With cycles,
// templates are drawn in successive shuffles of the whole pool, and
// the schedule holds the whole shuffles that fit the open phase at the
// offered rate (at least one), so every seed's open phase carries the
// pool's mix exactly; otherwise each draw is uniform and the schedule
// fills the open phase.
func (t *traffic) finish(seed int64, open time.Duration, cycles bool) {
	rng := seedStream(seed, 3)
	next := drawer(seedStream(seed, 9), len(t.Templates), cycles)
	n := len(t.Templates) * max(1, int(math.Round(open.Seconds()*t.Params.Rate/float64(len(t.Templates)))))
	at := 0.0
	for {
		at += rng.ExpFloat64() / t.Params.Rate
		due := time.Duration(at * float64(time.Second))
		if cycles && len(t.Open) == n || !cycles && due >= open {
			break
		}
		t.Open = append(t.Open, arrival{Due: due, Tmpl: next()})
	}
	next = drawer(seedStream(seed, 4), len(t.Templates), cycles)
	t.Closed = make([]int, closedLen)
	for i := range t.Closed {
		t.Closed[i] = next()
	}
	for i := range t.Templates {
		t.Templates[i].Body = t.body(i)
	}
}

// drawer returns a seeded sequence of template indices below n.
func drawer(rng *rand.Rand, n int, cycles bool) func() int {
	var perm []int
	return func() int {
		if !cycles {
			return rng.Intn(n)
		}
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		i := perm[0]
		perm = perm[1:]
		return i
	}
}

// submission is the POST /v1/jobs payload shape the benchmark sends:
// the one-program shorthand, or an explicit job list (the warm-up).
type submission struct {
	Jobs    []pipeline.V1Job `json:"jobs,omitempty"`
	Program string           `json:"program,omitempty"`
	Source  string           `json:"source,omitempty"`
	Lang    string           `json:"lang,omitempty"`
	Func    string           `json:"func,omitempty"`
	Specs   []analysis.Spec  `json:"specs,omitempty"`
}

func (t *traffic) body(i int) []byte {
	tm := t.Templates[i]
	pr := t.Programs[tm.Prog]
	s := submission{Func: pr.Func, Specs: tm.Specs}
	if t.Params.Inline {
		s.Source = pr.Source
		if pr.Lang == "go" {
			s.Lang = "go"
		}
	} else {
		s.Program = pipeline.SourceID(pr.Source)
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // specs and sources are plain data
	}
	return b
}

// libraryJobs returns template i as pipeline jobs, in submission order:
// what the server resolves the submission to.
func (t *traffic) libraryJobs(i int) []pipeline.Job {
	tm := t.Templates[i]
	pr := t.Programs[tm.Prog]
	jobs := make([]pipeline.Job, len(tm.Specs))
	for k, sp := range tm.Specs {
		jobs[k] = pipeline.Job{Spec: sp, Source: pr.Source, Lang: pr.Lang, Func: pr.Func}
	}
	return jobs
}

// corpusPrograms returns the lifted corpus's entry functions, one
// program per function.
func corpusPrograms(src string, seed int64) ([]program, error) {
	rng := seedStream(seed, 5)
	var out []program
	for _, fn := range lift.FuncNames() {
		pr, err := compiledProgram(gofront.LangGo, src, fn, rng)
		if err != nil {
			return nil, fmt.Errorf("lifted corpus: %w", err)
		}
		out = append(out, pr)
	}
	return out, nil
}

// fixturePrograms returns every function of the testdata/*.fpl
// fixtures.
func fixturePrograms(root string, seed int64) ([]program, error) {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "*.fpl"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no FPL fixtures under %s/testdata", root)
	}
	sort.Strings(files)
	rng := seedStream(seed, 6)
	var out []program
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		mod, err := gofront.CompileSource(gofront.LangFPL, f, string(b))
		if err != nil {
			return nil, err
		}
		for _, fn := range mod.Order {
			pr, err := compiledProgram(gofront.LangFPL, string(b), fn, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, pr)
		}
	}
	return out, nil
}

// compiledProgram compiles fn of src and derives its reach target from
// one concrete execution at a seeded input.
func compiledProgram(lg gofront.Lang, src, fn string, rng *rand.Rand) (program, error) {
	mod, err := gofront.CompileSource(lg, "", src)
	if err != nil {
		return program{}, err
	}
	p, err := interp.New(mod).Program(fn)
	if err != nil {
		return program{}, err
	}
	x := make([]float64, p.Dim)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	wit := &instrument.PathWitness{}
	p.Execute(wit, x)
	path := append([]instrument.Decision(nil), wit.Decisions()...)
	if len(path) > 3 {
		path = path[:3]
	}
	return program{Lang: lg.String(), Source: src, Func: fn, Dim: p.Dim, Path: path}, nil
}

// describe summarizes the traffic for the run metadata.
func (t *traffic) describe() map[string]any {
	counts := map[string]int{}
	kb := 0.0
	for _, tm := range t.Templates {
		for _, sp := range tm.Specs {
			counts[sp.Analysis]++
		}
		kb += float64(len(tm.Body)) / 1024
	}
	langs := map[string]int{}
	for _, pr := range t.Programs {
		langs[pr.Lang]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, fmt.Sprintf("%s=%d", n, counts[n]))
	}
	sort.Strings(names)
	return map[string]any{
		"params":           t.Params,
		"programs":         len(t.Programs),
		"program_langs":    langs,
		"analyses":         strings.Join(names, ","),
		"open_arrivals":    len(t.Open),
		"mean_body_kb":     kb / float64(len(t.Templates)),
		"module_cache_cap": pipeline.DefaultMaxModules,
	}
}
