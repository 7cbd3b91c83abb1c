package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// class is how the server admits a route: reads pass admitRead (or an
// admitter with no write gate), mutations pass admitMutate or the
// follower write gate.
type class int

const (
	classRead class = iota
	classMutation
)

func (c class) String() string {
	if c == classMutation {
		return "mutation"
	}
	return "read"
}

// routeClass classes every route the benchmark sends, keyed by the
// server's mux pattern with the workspace prefix removed. POST /integrate
// and POST /query are reads: the server admits them with admitRead.
var routeClass = map[string]class{
	"GET /healthz":               classRead,
	"GET /v1/workspaces":         classRead,
	"GET /metrics":               classRead,
	"POST /v1/workspaces":        classMutation,
	"DELETE /v1/workspaces/{ws}": classMutation,
	"POST /schemas":              classMutation,
	"GET /schemas":               classRead,
	"POST /equivalences":         classMutation,
	"GET /equivalences":          classRead,
	"GET /resemblance":           classRead,
	"GET /matrix":                classRead,
	"GET /suggestions":           classRead,
	"POST /assertions":           classMutation,
	"GET /assertions":            classRead,
	"DELETE /assertions":         classMutation,
	"GET /assertions/explain":    classRead,
	"POST /integrate":            classRead,
	"POST /integrations":         classMutation,
	"GET /integrations":          classRead,
	"POST /rows":                 classMutation,
	"POST /query":                classRead,
	"POST /jobs":                 classMutation,
	"GET /jobs/{id}":             classRead,
}

// routeKey maps a request to its routeClass key: the workspace prefix is
// dropped and path values are replaced by their pattern names.
func routeKey(method, path string) string {
	const wsPrefix = "/v1/workspaces"
	path, _, _ = strings.Cut(path, "?")
	if path == wsPrefix {
		return method + " " + wsPrefix
	}
	rest, ok := strings.CutPrefix(path, wsPrefix+"/")
	if !ok {
		rest, ok = strings.CutPrefix(path, "/v1")
		if !ok {
			return method + " " + path
		}
		return method + " " + templatize(rest)
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return method + " " + wsPrefix + "/{ws}"
	}
	return method + " " + templatize(rest[slash:])
}

// templatize replaces the path values of the item routes.
func templatize(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) == 3 {
		switch parts[1] {
		case "jobs":
			return "/jobs/{id}"
		case "schemas", "integrations":
			if parts[2] != "" {
				return "/" + parts[1] + "/{name}"
			}
		}
	}
	return p
}

// obs is one client-side request observation.
type obs struct {
	route string
	class class
	due   time.Time // when the request was due (open loop) or issued
	sent  time.Time
	done  time.Time
	pause time.Duration // deliberate client sleep before it (closed loops)
	ok    bool
	// variant names which of a route's differently sized requests this
	// was (the upload's language, the query's direction), so that route
	// medians are taken over like requests.
	variant string
}

// latency counts from when the request was due, so a stalled generator
// charges its stall to every request it delays.
func (o obs) latency() time.Duration  { return o.done.Sub(o.due) }
func (o obs) lateness() time.Duration { return o.sent.Sub(o.due) }

// meter collects one client goroutine's observations; goroutines never
// share one.
type meter struct {
	obs      []obs
	failures []string
	pause    time.Duration // deliberate sleep since the last request
}

// sleep pauses the client on purpose (think time, poll interval); the
// pause is not counted as generator lateness.
func (m *meter) sleep(d time.Duration) {
	time.Sleep(d)
	m.pause += d
}

// label sets the variant of the last observation.
func (m *meter) label(variant string) {
	if n := len(m.obs); n > 0 {
		m.obs[n-1].variant = variant
	}
}

func (m *meter) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(m.failures) < 20 {
		m.failures = append(m.failures, err.Error())
	}
	return err
}

// client sends the benchmark's requests over one shared transport that
// keeps at most maxConns connections to the server.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, maxConns int, rec *recorder) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes the response into out when the status
// is the wanted one. due is when the request was due (zero: now). The
// observation is recorded whatever happens; a transport error, an
// unexpected status or an undecodable body returns an error.
func (c *client) call(m *meter, parent *active, due time.Time, method, path string, body any, want int, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	key := routeKey(method, path)
	cl, known := routeClass[key]
	if !known {
		return nil, m.fail("route %s is not classed", key)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.rec.start("client.request", key, parent)
	sp.inject(req.Header)
	o := obs{route: key, class: cl, sent: time.Now(), pause: m.pause}
	m.pause = 0
	o.due = due
	if due.IsZero() {
		o.due = o.sent
	}
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Now()
	sp.endBytes(int64(len(data)))
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, truncate(data))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	o.ok = err == nil
	m.obs = append(m.obs, o)
	if err != nil {
		return nil, m.fail("%s %s: %v", method, path, err)
	}
	return data, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// harness is one durable server behind a real loopback listener. Its
// handler is the server's own, wrapped by a middleware that records a
// handler span per request in traced runs.
type harness struct {
	dir  string
	srv  *server.Server
	hs   *http.Server
	base string
	rec  atomic.Pointer[recorder]
	done chan struct{}
}

// setRecorder starts (non-nil) or stops (nil) handler spans.
func (h *harness) setRecorder(r *recorder) { h.rec.Store(r) }

// openHarness opens (or recovers) the durable server in dir with the
// default configuration, SyncAlways fsync policy, and waits until
// /healthz answers 200.
func openHarness(dir string, rec *recorder) (*harness, *server.RecoveryReport, error) {
	srv, rep, err := server.Open(server.Config{}, server.DurabilityConfig{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, nil, err
	}
	h := &harness{dir: dir, srv: srv, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.setRecorder(rec)
	h.hs = &http.Server{Handler: h.middleware(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	if err := h.waitHealthy(); err != nil {
		h.stop()
		return nil, nil, err
	}
	return h, rep, nil
}

func (h *harness) waitHealthy() error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(h.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s never became healthy: %v", h.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, then shuts the server down (which compacts
// every workspace journal), and waits for the serve goroutine.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	if serr := h.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (h *harness) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := h.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		sp := rec.startRemote("server.handler", routeKey(r.Method, r.URL.Path), r.Header)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		sp.endBytes(cw.n)
	})
}
