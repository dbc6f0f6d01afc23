// Package cluster implements fpserve's coordinator mode: a consistent-
// hash router that fans /v1 job batches over a fleet of fpserve
// workers.
//
// Jobs route by the consistent hash of their program's content address
// (the sha256 that also keys the module cache), so every worker serves
// a stable slice of the program space and its cache stays hot — a
// cache hit costs ~1.8µs against a ~54µs compile. The hash ring uses
// virtual nodes for spread and bounded-load routing for balance: a
// worker already carrying more than its fair share of in-flight jobs
// is skipped in favor of the next node clockwise, so one hot program
// cannot serialize the fleet.
//
// The coordinator registers programs on a worker lazily at first
// routing (registration is an idempotent content-addressed PUT),
// health-checks the fleet with a /healthz probe loop under
// deterministic backoff, takes dead workers out of the ring, and
// requeues their unfinished jobs onto survivors. Results are
// content-deterministic and emitted in batch order, so the stitched
// sequence is byte-identical to a single-node run — including after a
// mid-batch worker death.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// Ring shape.
const (
	// vnodesPerMember is the number of virtual nodes per worker: enough
	// that each worker's arc of the key space is fragmented into many
	// interleaved slices, so removing one worker spreads its keys over
	// all survivors instead of dumping them on a single neighbor.
	vnodesPerMember = 64
	// loadFactor caps a worker's in-flight share at this multiple of
	// the fleet average (consistent hashing with bounded loads); keys
	// landing on a worker at its cap spill clockwise.
	loadFactor = 1.25
)

// vnode is one virtual point on the ring.
type vnode struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring with virtual nodes, liveness, and
// bounded-load owner selection. Members keep their ring positions
// while dead — only their traffic detours — so a worker that rejoins
// gets its old key slice (and its still-warm module cache) back.
type Ring struct {
	mu     sync.RWMutex
	vnodes []vnode // sorted by hash
	alive  map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{alive: map[string]bool{}}
}

// hash64 places keys and virtual nodes on the ring: FNV-1a, then the
// splitmix64 finalizer. FNV-1a alone barely moves the high bits between
// inputs that differ only in their last bytes, as "127.0.0.1:40001#3"
// and "127.0.0.1:40002#3" do, so a member's virtual nodes would bunch
// together: over 20 pairs of adjacent loopback ports the busier of two
// workers would own up to 96% of the keys (median 67%). The finalizer
// spreads every input bit over the whole word, and the same pairs stay
// at or below 59%.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts member's virtual nodes (idempotently) and marks it
// alive.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.alive[member]; !known {
		for i := 0; i < vnodesPerMember; i++ {
			r.vnodes = append(r.vnodes, vnode{
				hash:   hash64(fmt.Sprintf("%s#%d", member, i)),
				member: member,
			})
		}
		sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	}
	r.alive[member] = true
}

// SetAlive flips member's liveness without moving its virtual nodes.
// Unknown members are ignored.
func (r *Ring) SetAlive(member string, alive bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.alive[member]; known {
		r.alive[member] = alive
	}
}

// AliveCount reports how many members are currently alive.
func (r *Ring) AliveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, up := range r.alive {
		if up {
			n++
		}
	}
	return n
}

// Alive lists the live members, sorted.
func (r *Ring) Alive() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for m, up := range r.alive {
		if up {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// Owner returns the live member owning key. With load non-nil it
// applies the bounded-load rule: walking clockwise from the key's ring
// position, a member carrying at least ceil(loadFactor · (total+1) /
// alive) of the fleet's load is skipped; if every live member is at
// its cap the key's natural owner takes it anyway (the cap balances,
// it must not deadlock). load reports one member's current assignment
// count; total is summed over live members under the same read lock,
// so a caller that mutates loads between calls sees a consistent cap.
// With load nil the choice is pure consistent hashing. The second
// result is false only when no member is alive.
func (r *Ring) Owner(key string, load func(member string) int) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	alive := 0
	for _, up := range r.alive {
		if up {
			alive++
		}
	}
	if alive == 0 || len(r.vnodes) == 0 {
		return "", false
	}
	cap := math.MaxInt
	if load != nil {
		total := 0
		for m, up := range r.alive {
			if up {
				total += load(m)
			}
		}
		cap = int(math.Ceil(loadFactor * float64(total+1) / float64(alive)))
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	fallback := ""
	seen := map[string]bool{}
	for k := 0; k < len(r.vnodes) && len(seen) < alive; k++ {
		vn := r.vnodes[(start+k)%len(r.vnodes)]
		if !r.alive[vn.member] || seen[vn.member] {
			continue
		}
		seen[vn.member] = true
		if fallback == "" {
			fallback = vn.member
		}
		if load == nil || load(vn.member) < cap {
			return vn.member, true
		}
	}
	return fallback, true
}
