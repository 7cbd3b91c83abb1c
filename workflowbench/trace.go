package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span propagation headers: the client sends its request id and its own
// span id, the server-side middleware parents the handler span on them.
// They are set only in traced runs.
const (
	headerRequestID  = "X-Request-Id"
	headerParentSpan = "X-Parent-Span"
)

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch; Req groups the spans of one request, Parent links a
// span to the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Bytes is the response body size, for handler spans.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	r *recorder
	s span
}

// start opens a span. A zero parent makes a root span that starts a new
// request id; otherwise the span joins the parent's request.
func (r *recorder) start(name, label string, parent *active) *active {
	if r == nil {
		return nil
	}
	a := &active{r: r, s: span{ID: r.ids.Add(1), Name: name, Label: label}}
	if parent != nil {
		a.s.Parent, a.s.Req = parent.s.ID, parent.s.Req
	} else {
		a.s.Req = a.s.ID
	}
	a.s.Start = int64(time.Since(r.epoch))
	return a
}

// startRemote opens a span whose parent lives on the other side of an HTTP
// request, identified by the propagation headers.
func (r *recorder) startRemote(name, label string, h http.Header) *active {
	if r == nil {
		return nil
	}
	a := r.start(name, label, nil)
	if req, err := strconv.ParseUint(h.Get(headerRequestID), 10, 64); err == nil {
		a.s.Req = req
	}
	if p, err := strconv.ParseUint(h.Get(headerParentSpan), 10, 64); err == nil {
		a.s.Parent = p
	}
	return a
}

// inject writes the propagation headers for a request made under a.
func (a *active) inject(h http.Header) {
	if a == nil {
		return
	}
	h.Set(headerRequestID, strconv.FormatUint(a.s.Req, 10))
	h.Set(headerParentSpan, strconv.FormatUint(a.s.ID, 10))
}

// end closes the span and keeps it.
func (a *active) end() {
	a.endBytes(0)
}

func (a *active) endBytes(n int64) {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.epoch))
	a.s.Bytes = n
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id. Overlapping children count
// once; children reaching outside the parent are clipped to it.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerShares sums self time by span name and returns each name's share of
// the total, for the report's layer breakdown. Handler spans are split by
// route.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	var total time.Duration
	for _, s := range spans {
		key := s.Name
		if s.Name == "server.handler" {
			key += " " + s.Label
		}
		sum[key] += self[s.ID]
		total += self[s.ID]
	}
	out := map[string]float64{}
	for name, d := range sum {
		if total > 0 {
			out[name] = float64(d) / float64(total)
		}
	}
	return out
}
