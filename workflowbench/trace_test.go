package main

import (
	"net/http"
	"testing"
	"time"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // reaches past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	shares := layerShares(spans)
	if got := shares["parent"]; got != 50.0/130 {
		t.Errorf("parent share = %v, want %v", got, 50.0/130)
	}
}

func TestRecorderPropagatesRequestAndParent(t *testing.T) {
	r := newRecorder()
	root := r.start("client.request", "GET /matrix", nil)
	h := http.Header{}
	root.inject(h)
	srv := r.startRemote("server.handler", "GET /matrix", h)
	child := r.start("store.Matrix", "", srv)
	child.end()
	srv.endBytes(42)
	root.end()

	byName := map[string]span{}
	for _, s := range r.snapshot() {
		byName[s.Name] = s
	}
	c, s, st := byName["client.request"], byName["server.handler"], byName["store.Matrix"]
	if c.Parent != 0 || c.Req != c.ID {
		t.Errorf("root span %+v should start its own request", c)
	}
	if s.Parent != c.ID || s.Req != c.Req || s.Bytes != 42 {
		t.Errorf("handler span %+v not linked to %+v", s, c)
	}
	if st.Parent != s.ID || st.Req != c.Req {
		t.Errorf("store span %+v not linked to %+v", st, s)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	a := r.start("x", "", nil)
	a.inject(http.Header{})
	a.end()
	if r.snapshot() != nil {
		t.Error("nil recorder returned spans")
	}
}
