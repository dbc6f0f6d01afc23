package cluster

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

func TestRingStableOwnership(t *testing.T) {
	r := NewRing()
	members := []string{"a:1", "b:1", "c:1"}
	for _, m := range members {
		r.Add(m)
	}
	hits := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("sha256:%04d", i)
		o1, ok := r.Owner(key, nil)
		if !ok {
			t.Fatalf("no owner for %s", key)
		}
		o2, _ := r.Owner(key, nil)
		if o1 != o2 {
			t.Fatalf("owner of %s flapped: %s then %s", key, o1, o2)
		}
		hits[o1]++
	}
	for _, m := range members {
		if hits[m] == 0 {
			t.Fatalf("member %s owns none of 1000 keys: %v", m, hits)
		}
	}
}

// TestRingSpreadsSimilarNames checks that members whose names differ
// only in their last bytes — workers on adjacent loopback ports, or
// a:1, b:1 and c:1 — split the key space evenly: no member of a pair
// owns more than 65% of 2000 program keys, and none of a trio less
// than 20%. Without hash64's finalizer the busier worker of these
// pairs owned up to 96%, and b:1 12%.
func TestRingSpreadsSimilarNames(t *testing.T) {
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = pipeline.SourceID(fmt.Sprintf("program %d", i))
	}
	shares := func(members ...string) map[string]float64 {
		r := NewRing()
		for _, m := range members {
			r.Add(m)
		}
		out := map[string]float64{}
		for _, k := range keys {
			o, _ := r.Owner(k, nil)
			out[o] += 1 / float64(len(keys))
		}
		return out
	}
	for p := 40000; p < 40040; p += 2 {
		a, b := fmt.Sprintf("127.0.0.1:%d", p), fmt.Sprintf("127.0.0.1:%d", p+1)
		if s := shares(a, b); s[a] > 0.65 || s[b] > 0.65 {
			t.Errorf("%s and %s split the keys %.2f/%.2f", a, b, s[a], s[b])
		}
	}
	s := shares("a:1", "b:1", "c:1")
	for _, m := range []string{"a:1", "b:1", "c:1"} {
		if s[m] < 0.2 {
			t.Errorf("%s owns %.2f of the keys: %v", m, s[m], s)
		}
	}
}

func TestRingDeadDetourAndReturn(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"a:1", "b:1", "c:1"} {
		r.Add(m)
	}
	key := "sha256:feed"
	home, _ := r.Owner(key, nil)
	r.SetAlive(home, false)
	if n := r.AliveCount(); n != 2 {
		t.Fatalf("alive count %d after one death, want 2", n)
	}
	detour, ok := r.Owner(key, nil)
	if !ok || detour == home {
		t.Fatalf("key still routes to dead member %s (ok=%v)", detour, ok)
	}
	// Liveness restored: the key comes home — the rejoining worker gets
	// its warm cache slice back.
	r.SetAlive(home, true)
	if back, _ := r.Owner(key, nil); back != home {
		t.Fatalf("key routed to %s after %s rejoined", back, home)
	}

	for _, m := range []string{"a:1", "b:1", "c:1"} {
		r.SetAlive(m, false)
	}
	if _, ok := r.Owner(key, nil); ok {
		t.Fatal("owner reported for a fully dead ring")
	}
}

// TestRingBoundedLoad assigns many jobs of ONE hot key: without the
// load bound they would serialize on the key's home node; with it the
// spill keeps every member within the cap.
func TestRingBoundedLoad(t *testing.T) {
	r := NewRing() // loadFactor 1.25
	members := []string{"a:1", "b:1"}
	for _, m := range members {
		r.Add(m)
	}
	loads := map[string]int{}
	load := func(m string) int { return loads[m] }
	const jobs = 16
	for i := 0; i < jobs; i++ {
		o, ok := r.Owner("sha256:hot", load)
		if !ok {
			t.Fatal("no owner")
		}
		loads[o]++
	}
	if len(loads) < 2 {
		t.Fatalf("one hot key serialized on a single member: %v", loads)
	}
	// ceil(1.25·(total+1)/2) at the final assignment = ceil(1.25·16/2) = 10.
	for m, n := range loads {
		if n > 10 {
			t.Fatalf("member %s carries %d of %d jobs, past the bounded-load cap: %v", m, n, jobs, loads)
		}
	}
}

func TestReindexByteRewrite(t *testing.T) {
	raw := []byte(`{"index":17,"analysis":"coverage","duration":123}`)
	got := string(reindex(raw, 3))
	want := `{"index":3,"analysis":"coverage","duration":123}`
	if got != want {
		t.Fatalf("reindex:\n got %s\nwant %s", got, want)
	}
	if got := string(reindex([]byte(`{"index":0}`), 42)); got != `{"index":42}` {
		t.Fatalf("reindex minimal: %s", got)
	}
}

func TestNormalizeWorker(t *testing.T) {
	for _, tc := range []struct{ in, base, name string }{
		{"localhost:8035", "http://localhost:8035", "localhost:8035"},
		{"http://10.0.0.7:9000", "http://10.0.0.7:9000", "10.0.0.7:9000"},
		{" host:1 ", "http://host:1", "host:1"},
	} {
		base, name, err := normalizeWorker(tc.in)
		if err != nil || base != tc.base || name != tc.name {
			t.Fatalf("normalizeWorker(%q) = %q, %q, %v; want %q, %q", tc.in, base, name, err, tc.base, tc.name)
		}
	}
	if _, _, err := normalizeWorker(""); err == nil {
		t.Fatal("empty worker address accepted")
	}
}
