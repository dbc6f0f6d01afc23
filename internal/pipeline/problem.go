package pipeline

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/analysis"
)

// ProblemDetails is the RFC 9457 (application/problem+json) error body
// of every fpserve /v1 error response. Validation problems carry
// field-level details in Errors, typed as analysis.SpecError — the same
// type the CLI renders — so API consumers see exactly which spec field
// of which job was wrong without parsing prose.
type ProblemDetails struct {
	// Type is a stable URN identifying the problem class.
	Type string `json:"type"`
	// Title is the short human-readable class description.
	Title string `json:"title"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
	// Detail describes this occurrence.
	Detail string `json:"detail,omitempty"`
	// Errors lists field-level validation failures, when the problem is
	// a validation problem.
	Errors []*analysis.SpecError `json:"errors,omitempty"`
}

// Problem type URNs.
const (
	problemValidation = "urn:fpserve:problem:validation"
	problemNotFound   = "urn:fpserve:problem:not-found"
	problemTooLarge   = "urn:fpserve:problem:request-too-large"
	problemOverloaded = "urn:fpserve:problem:overloaded"
	problemShutdown   = "urn:fpserve:problem:shutting-down"
	problemInternal   = "urn:fpserve:problem:internal-error"
)

// setRetryAfter attaches the client backoff hint to a load-shedding or
// transient-failure response. Retry-After takes whole seconds; the hint
// rounds up so a 250ms suggestion does not become "retry immediately".
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// writeProblem writes a problem+json response.
func writeProblem(w http.ResponseWriter, status int, typ, title, detail string, errs ...*analysis.SpecError) {
	w.Header().Set("Content-Type", "application/problem+json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ProblemDetails{
		Type:   typ,
		Title:  title,
		Status: status,
		Detail: detail,
		Errors: errs,
	})
}

// validationProblem writes a 400 validation problem whose field-level
// details are whatever SpecErrors the error chain carries: a bare
// SpecError becomes one detail entry; a specErrs list is passed
// through; anything else is detail-only.
func validationProblem(w http.ResponseWriter, detail string, errs []*analysis.SpecError) {
	writeProblem(w, http.StatusBadRequest, problemValidation, "invalid request", detail, errs...)
}

// plural renders a count with its noun, plural unless the count is 1.
func plural(n int, noun string) string {
	if n == 1 {
		return "1 " + noun
	}
	return strconv.Itoa(n) + " " + noun + "s"
}

// notFoundProblem writes a 404 with the resource kind and id.
func notFoundProblem(w http.ResponseWriter, kind, id string) {
	writeProblem(w, http.StatusNotFound, problemNotFound, kind+" not found",
		"no "+kind+" with id "+id)
}
