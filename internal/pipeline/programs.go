package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gofront"
	"repro/internal/interp"
)

// ProgramInfo is the wire description of a registered program.
type ProgramInfo struct {
	// ID is the content address of the source ("sha256:<hex>").
	ID string `json:"id"`
	// Lang is the source language ("fpl" or "go").
	Lang string `json:"lang"`
	// Func is the default function jobs referencing this program analyze
	// (set at registration; jobs may override it).
	Func string `json:"func"`
	// Funcs lists every function declared by the source.
	Funcs []string `json:"funcs"`
	// Dim is the input arity of the default function.
	Dim int `json:"dim"`
	// Branches and Ops count the instrumented branch and operation
	// sites of the default function.
	Branches int `json:"branches"`
	Ops      int `json:"ops"`
	// SourceBytes is the registered source length.
	SourceBytes int `json:"sourceBytes"`
	// Registered is the registration time.
	Registered time.Time `json:"registered"`
}

type registeredProgram struct {
	info   ProgramInfo
	source string
}

// DefaultMaxPrograms bounds the program registry.
const DefaultMaxPrograms = 1024

// ProgramStore is the fpserve /v1 program registry: FPL sources
// registered once under their content address and referenced by ID from
// any number of jobs. Registration compiles through the shared module
// cache, so the first job on a registered program is already a cache
// hit, and identical sources registered twice are the same resource.
type ProgramStore struct {
	// MaxPrograms bounds registered programs; 0 selects
	// DefaultMaxPrograms. Registration beyond the bound is refused (the
	// client controls eviction via DELETE).
	MaxPrograms int

	cache *ModuleCache

	mu   sync.Mutex
	byID map[string]*registeredProgram
}

// NewProgramStore returns an empty store registering through cache.
func NewProgramStore(cache *ModuleCache) *ProgramStore {
	return &ProgramStore{cache: cache, byID: map[string]*registeredProgram{}}
}

// ErrStoreFull is returned when registration would exceed MaxPrograms.
type ErrStoreFull struct{ Max int }

func (e ErrStoreFull) Error() string { return "program store full" }

// Register validates and registers source under its content address,
// with lg as its language and fn (empty = first declared) as the
// default analyzed function. Registering an already-registered source
// is idempotent: the second result reports whether the program was
// already present. Re-registering the same bytes under a different
// language is refused — the ID is the content address of the bytes, so
// one registration owns it.
func (ps *ProgramStore) Register(lg gofront.Lang, source, fn string, now time.Time) (ProgramInfo, bool, error) {
	id := SourceID(source)
	ps.mu.Lock()
	if rp, ok := ps.byID[id]; ok {
		info := rp.info
		ps.mu.Unlock()
		if info.Lang != lg.String() {
			return ProgramInfo{}, false, fmt.Errorf(
				"program %s is already registered with lang %q", id, info.Lang)
		}
		return info, true, nil
	}
	max := ps.MaxPrograms
	if max <= 0 {
		max = DefaultMaxPrograms
	}
	if len(ps.byID) >= max {
		ps.mu.Unlock()
		return ProgramInfo{}, false, ErrStoreFull{Max: max}
	}
	ps.mu.Unlock()

	// Compile outside the store lock (the module cache serializes
	// per-module compilation itself).
	it, _, err := ps.cache.Module(lg, source, interp.DefaultEngine)
	if err != nil {
		return ProgramInfo{}, false, err
	}
	if fn == "" {
		fn = it.Mod.Order[0]
	}
	p, _, err := ps.cache.Program(lg, source, fn, interp.DefaultEngine)
	if err != nil {
		return ProgramInfo{}, false, err
	}
	funcs := make([]string, len(it.Mod.Order))
	copy(funcs, it.Mod.Order)
	info := ProgramInfo{
		ID:          id,
		Lang:        lg.String(),
		Func:        fn,
		Funcs:       funcs,
		Dim:         p.Dim,
		Branches:    len(p.Branches),
		Ops:         len(p.Ops),
		SourceBytes: len(source),
		Registered:  now,
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if rp, ok := ps.byID[id]; ok { // raced with an identical registration
		if rp.info.Lang != lg.String() {
			return ProgramInfo{}, false, fmt.Errorf(
				"program %s is already registered with lang %q", id, rp.info.Lang)
		}
		return rp.info, true, nil
	}
	if len(ps.byID) >= max { // re-check: concurrent distinct registrations
		return ProgramInfo{}, false, ErrStoreFull{Max: max}
	}
	ps.byID[id] = &registeredProgram{info: info, source: source}
	return info, false, nil
}

// Lookup resolves a registered program by ID.
func (ps *ProgramStore) Lookup(id string) (ProgramInfo, string, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	rp, ok := ps.byID[id]
	if !ok {
		return ProgramInfo{}, "", false
	}
	return rp.info, rp.source, true
}

// Delete evicts a registered program and its cached module. In-flight
// jobs keep their program instances; only the registration and the
// cache slot go away.
func (ps *ProgramStore) Delete(id string) bool {
	ps.mu.Lock()
	rp, ok := ps.byID[id]
	delete(ps.byID, id)
	ps.mu.Unlock()
	if !ok {
		return false
	}
	lg, _ := gofront.ParseLang(rp.info.Lang)
	ps.cache.Drop(lg, rp.source, interp.DefaultEngine)
	return true
}

// List returns the registered programs ordered by ID.
func (ps *ProgramStore) List() []ProgramInfo {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]ProgramInfo, 0, len(ps.byID))
	for _, rp := range ps.byID {
		out = append(out, rp.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered programs.
func (ps *ProgramStore) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.byID)
}
