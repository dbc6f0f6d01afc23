package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fuzz"
	"repro/internal/gofront"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// gateReport is the outcome of the service correctness gate.
type gateReport struct {
	// Failed counts submissions whose results fail the gate.
	Failed int `json:"failed"`
	// Distinct counts the distinct submissions re-run through the
	// library path; Results the served results compared byte for byte
	// and replayed on the tree-walking engine.
	Distinct int      `json:"distinct"`
	Results  int      `json:"results"`
	Problems []string `json:"problems,omitempty"`
}

func (g *gateReport) fail(format string, args ...any) {
	if len(g.Problems) < 20 {
		g.Problems = append(g.Problems, fmt.Sprintf(format, args...))
	}
}

// mask blanks the bytes of a served result that may differ between
// identical runs: the wall-clock durations.
func mask(b []byte) []byte { return pipeline.NormalizeDurations(b) }

// resultHead is the part of a wire result the gate inspects directly.
type resultHead struct {
	Error    string `json:"error"`
	Canceled bool   `json:"canceled"`
}

// gateService checks every completed submission: each result must be
// error-free, every submission of one template must have served the
// same masked bytes, and each distinct template is re-run once through
// the library path — its masked bytes must equal the served ones and
// every finding must replay on the tree-walking engine. It returns the
// ops that failed (by pointer) alongside the report.
func gateService(ctx context.Context, t *traffic, ops []*op) (*gateReport, map[*op]bool) {
	g := &gateReport{}
	bad := map[*op]bool{}
	ref := map[int][][sha256.Size]byte{} // template → masked result digests
	refOp := map[int]*op{}
	for _, o := range ops {
		if o.Err != nil {
			continue
		}
		want := len(t.Templates[o.Tmpl].Specs)
		if len(o.Sums) != want {
			g.fail("job %d: %d results, want %d", o.Job, len(o.Sums), want)
			bad[o] = true
			continue
		}
		if o.Unclean != "" {
			g.fail("job %d %s", o.Job, o.Unclean)
			bad[o] = true
		}
		if prev, ok := ref[o.Tmpl]; ok {
			for k := range prev {
				if prev[k] != o.Sums[k] {
					g.fail("template %d result %d differs between jobs %d and %d", o.Tmpl, k, refOp[o.Tmpl].Job, o.Job)
					bad[o] = true
				}
			}
			continue
		}
		ref[o.Tmpl], refOp[o.Tmpl] = o.Sums, o
	}

	served := kept(ops)
	lib := pipeline.New(0)
	trees := map[string]*rt.Program{}
	for tmpl := range ref {
		g.Distinct++
		res, ok := served[tmpl]
		if !ok {
			g.fail("template %d: no served copy kept", tmpl)
			markTemplate(bad, ops, tmpl)
			continue
		}
		for k, job := range t.libraryJobs(tmpl) {
			g.Results++
			out := lib.RunJob(ctx, k, job)
			p, err := treeProgram(trees, job)
			if err != nil {
				g.fail("template %d: tree engine: %v", tmpl, err)
				markTemplate(bad, ops, tmpl)
				continue
			}
			if probs := checkResult(job, mask(res[k]), out, p); len(probs) > 0 {
				for _, pr := range probs {
					g.fail("template %d result %d: %s", tmpl, k, pr)
				}
				markTemplate(bad, ops, tmpl)
			}
		}
	}
	g.Failed = len(bad)
	return g, bad
}

// kept returns each template's kept copy of its served results.
func kept(ops []*op) map[int][]json.RawMessage {
	out := map[int][]json.RawMessage{}
	for _, o := range ops {
		if o.Err == nil && o.Results != nil {
			out[o.Tmpl] = o.Results
		}
	}
	return out
}

func markTemplate(bad map[*op]bool, ops []*op, tmpl int) {
	for _, o := range ops {
		if o.Err == nil && o.Tmpl == tmpl {
			bad[o] = true
		}
	}
}

// checkResult gates one served result (masked) against the library
// re-run of its job: the masked bytes must match, and every finding of
// the re-run report must replay on p, the job's program on the
// tree-walking engine.
func checkResult(job pipeline.Job, served []byte, lib pipeline.JobResult, p *rt.Program) []string {
	var probs []string
	if lib.Error != "" || lib.Canceled {
		probs = append(probs, "library re-run failed: "+lib.Error)
		return probs
	}
	if got := mask(pipeline.MarshalResult(lib)); !bytes.Equal(got, served) {
		probs = append(probs, fmt.Sprintf("served bytes differ from the library re-run at byte %d", firstDiff(got, served)))
	}
	for _, v := range fuzz.ReplayFindings(p, job.Spec, lib.Report) {
		probs = append(probs, "finding does not replay: "+v.Detail)
	}
	return probs
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// treeProgram builds the job's program on the tree-walking engine, an
// execution path independent of the VM that found the findings.
func treeProgram(cache map[string]*rt.Program, job pipeline.Job) (*rt.Program, error) {
	key := job.Lang + "\x00" + job.Func + "\x00" + job.Source
	if p, ok := cache[key]; ok {
		return p.Instance(), nil
	}
	lg, err := gofront.ParseLang(job.Lang)
	if err != nil {
		return nil, err
	}
	mod, err := gofront.CompileSource(lg, "", job.Source)
	if err != nil {
		return nil, err
	}
	it := interp.New(mod)
	it.Engine = interp.EngineTree
	fn := job.Func
	if fn == "" {
		fn = mod.Order[0]
	}
	p, err := it.Program(fn)
	if err != nil {
		return nil, err
	}
	cache[key] = p
	return p.Instance(), nil
}

// digestOps hashes the masked results of ops in order; a failed op
// contributes a marker so a missing result changes the digest.
func digestOps(ops []*op) string {
	h := sha256.New()
	for _, o := range ops {
		if o.Err != nil {
			fmt.Fprintf(h, "failed %d\n", o.Job)
			continue
		}
		for _, sum := range o.Sums {
			h.Write(sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
