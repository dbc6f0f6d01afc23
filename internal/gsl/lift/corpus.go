// Package lift is the lifted GSL corpus: the airy, bessel, cheb,
// hyperg, and trig ports of internal/gsl rewritten in the numeric Go
// subset internal/gofront understands. Each source file in this package
// is compiled twice from the same bytes — natively, into the functions
// below, and through the Go frontend into ir.Module — which is what
// makes the differential oracle exact: any divergence between the
// native result and the VM result is a frontend bug, not a porting
// artifact.
//
// Everything here stays inside the subset: float64 parameters and
// results, if/for, intra-unit calls, math.*. GSL's integer bookkeeping
// (octants, loop counters, status codes) is rephrased in exact
// integer-valued float64 arithmetic.
package lift

import (
	"embed"
	"sort"
	"strings"
)

// The corpus source files, embedded so the exact bytes the native build
// compiled are also what the frontend lifts.
//
//go:embed consts.go cheb.go bessel.go trig.go hyperg.go airy.go
var srcFS embed.FS

// corpusFiles lists the embedded files in a fixed order, so
// CombinedSource is deterministic (the pipeline content-addresses it by
// sha256).
var corpusFiles = []string{
	"consts.go", "cheb.go", "bessel.go", "trig.go", "hyperg.go", "airy.go",
}

// CombinedSource returns the whole corpus as one self-contained Go
// source file: one package clause, one math import, then every
// declaration. This is the program registered with the pipeline; the
// intra-unit calls between files (airy → cheb, trig) resolve within it.
func CombinedSource() string {
	var sb strings.Builder
	sb.WriteString("package lift\n\nimport \"math\"\n")
	for _, name := range corpusFiles {
		data, err := srcFS.ReadFile(name)
		if err != nil {
			panic("lift: embedded corpus file missing: " + name)
		}
		sb.WriteString("\n")
		sb.WriteString(stripHeader(string(data)))
	}
	return sb.String()
}

// stripHeader drops the per-file package clause and math import, which
// CombinedSource re-emits once at the top.
func stripHeader(src string) string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "package lift" || t == `import "math"` {
			continue
		}
		out = append(out, line)
	}
	return strings.TrimLeft(strings.Join(out, "\n"), "\n")
}

// Fn is a natively compiled corpus function: the oracle side of the
// differential contract.
type Fn struct {
	Arity int
	Call  func(args []float64) float64
}

// funcs is the native registry. Every function declared in the corpus
// files appears here; TestCorpusRegistryComplete enforces the
// correspondence against the lifted module.
var funcs = map[string]Fn{
	"chebVal1": {5, func(a []float64) float64 { return chebVal1(a[0], a[1], a[2], a[3], a[4]) }},
	"chebErr1": {5, func(a []float64) float64 { return chebErr1(a[0], a[1], a[2], a[3], a[4]) }},
	"chebVal2": {6, func(a []float64) float64 { return chebVal2(a[0], a[1], a[2], a[3], a[4], a[5]) }},
	"chebErr2": {6, func(a []float64) float64 { return chebErr2(a[0], a[1], a[2], a[3], a[4], a[5]) }},
	"chebVal4": {8, func(a []float64) float64 {
		return chebVal4(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
	}},
	"chebErr4": {8, func(a []float64) float64 {
		return chebErr4(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
	}},

	"besselKnuScaledAsympxVal": {2, func(a []float64) float64 { return besselKnuScaledAsympxVal(a[0], a[1]) }},
	"besselKnuScaledAsympxErr": {2, func(a []float64) float64 { return besselKnuScaledAsympxErr(a[0], a[1]) }},

	"gslCosVal":    {1, func(a []float64) float64 { return gslCosVal(a[0]) }},
	"gslCosErr":    {1, func(a []float64) float64 { return gslCosErr(a[0]) }},
	"gslCosErrVal": {2, func(a []float64) float64 { return gslCosErrVal(a[0], a[1]) }},
	"gslCosErrErr": {2, func(a []float64) float64 { return gslCosErrErr(a[0], a[1]) }},

	"isNonPosIntF":    {1, func(a []float64) float64 { return isNonPosIntF(a[0]) }},
	"hypergUVal":      {3, func(a []float64) float64 { return hypergUVal(a[0], a[1], a[2]) }},
	"hypergUErr":      {3, func(a []float64) float64 { return hypergUErr(a[0], a[1], a[2]) }},
	"hyperg2F0Val":    {3, func(a []float64) float64 { return hyperg2F0Val(a[0], a[1], a[2]) }},
	"hyperg2F0Err":    {3, func(a []float64) float64 { return hyperg2F0Err(a[0], a[1], a[2]) }},
	"hyperg2F0Status": {3, func(a []float64) float64 { return hyperg2F0Status(a[0], a[1], a[2]) }},

	"am22YOfF":             {1, func(a []float64) float64 { return am22YOfF(a[0]) }},
	"airyModPhaseModVal":   {1, func(a []float64) float64 { return airyModPhaseModVal(a[0]) }},
	"airyModPhaseModErr":   {1, func(a []float64) float64 { return airyModPhaseModErr(a[0]) }},
	"airyModPhasePhaseVal": {1, func(a []float64) float64 { return airyModPhasePhaseVal(a[0]) }},
	"airyModPhasePhaseErr": {1, func(a []float64) float64 { return airyModPhasePhaseErr(a[0]) }},
	"airyModPhaseStatus":   {1, func(a []float64) float64 { return airyModPhaseStatus(a[0]) }},
	"airyMidVal":           {1, func(a []float64) float64 { return airyMidVal(a[0]) }},
	"airyAiVal":            {1, func(a []float64) float64 { return airyAiVal(a[0]) }},
	"airyAiErr":            {1, func(a []float64) float64 { return airyAiErr(a[0]) }},
	"airyAiStatus":         {1, func(a []float64) float64 { return airyAiStatus(a[0]) }},
}

// Funcs returns the native registry.
func Funcs() map[string]Fn { return funcs }

// FuncNames returns the corpus function names, sorted.
func FuncNames() []string {
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Bug1Input is the paper's airy Bug-1 trigger: the input at which the
// am22 Chebyshev sum vanishes and airyModPhaseModErr divides by zero.
const Bug1Input = airyBug1X
