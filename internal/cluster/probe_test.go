package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestStaleProbeDoesNotReviveSuspect: a /healthz answer to a probe sent
// before suspect ran predates the dispatch evidence and must not put
// the worker back in the ring.
func TestStaleProbeDoesNotReviveSuspect(t *testing.T) {
	// The first /healthz answers only once the test releases it.
	probing, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() {
			close(probing)
			<-release
		})
	}))
	defer ts.Close()
	c, err := New(Config{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	w := c.workers[c.order[0]]

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.probe(w)
	}()
	<-probing
	c.suspect(w, errors.New("transport failure"))
	close(release)
	<-done

	if w.alive.Load() || c.ring.AliveCount() != 0 {
		t.Fatalf("a probe answered before suspect revived the worker: alive=%v ring=%v",
			w.alive.Load(), c.ring.Alive())
	}
	// A probe sent after the evidence may bring it back.
	c.probe(w)
	if !w.alive.Load() || c.ring.AliveCount() != 1 {
		t.Fatalf("a fresh successful probe left the worker out: alive=%v ring=%v",
			w.alive.Load(), c.ring.Alive())
	}
}
