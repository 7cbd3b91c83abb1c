package main

import (
	"os"
	"regexp"
	"testing"
)

func TestRouteKey(t *testing.T) {
	cases := map[[2]string]string{
		{"POST", "/v1/workspaces"}:                                "POST /v1/workspaces",
		{"DELETE", "/v1/workspaces/s0-3"}:                         "DELETE /v1/workspaces/{ws}",
		{"GET", "/v1/workspaces/t1/matrix?schema1=w1&schema2=w2"}: "GET /matrix",
		{"GET", "/v1/workspaces/b2/jobs/17"}:                      "GET /jobs/{id}",
		{"GET", "/v1/workspaces/t1/assertions/explain?x=1"}:       "GET /assertions/explain",
		{"GET", "/v1/matrix"}:                                     "GET /matrix",
		{"GET", "/healthz"}:                                       "GET /healthz",
		{"GET", "/metrics"}:                                       "GET /metrics",
	}
	for in, want := range cases {
		if got := routeKey(in[0], in[1]); got != want {
			t.Errorf("routeKey(%s %s) = %q, want %q", in[0], in[1], got, want)
		}
	}
}

// TestRoutesClassedByAdmitter reads the server's route table and checks
// that every route the benchmark sends is classed the way the server
// admits it: admitRead and admitOpen routes are reads, admitMutate routes
// and admin routes behind the follower write gate are mutations, other
// admin routes are reads.
func TestRoutesClassedByAdmitter(t *testing.T) {
	src, err := os.ReadFile("../internal/server/server.go")
	if err != nil {
		t.Fatal(err)
	}
	admitted := map[string]class{}
	ws := regexp.MustCompile(`s\.handleWS\("(\w+)", "([^"]+)", s\.(admit\w+)\(`)
	for _, m := range ws.FindAllStringSubmatch(string(src), -1) {
		admitted[m[1]+" "+m[2]] = admitterClass(t, m[3], false)
	}
	plain := regexp.MustCompile(`s\.handle\("(\w+) ([^"]+)", s\.(admit\w+)\((s\.gate\()?`)
	for _, m := range plain.FindAllStringSubmatch(string(src), -1) {
		admitted[m[1]+" "+m[2]] = admitterClass(t, m[3], m[4] != "")
	}
	if len(admitted) < 20 {
		t.Fatalf("found only %d routes in server.go; the pattern no longer matches", len(admitted))
	}
	for route, want := range routeClass {
		got, ok := admitted[route]
		if !ok {
			t.Errorf("route %s is not registered by the server", route)
			continue
		}
		if got != want {
			t.Errorf("route %s: benchmark classes it %v, the server admits it as %v", route, want, got)
		}
	}
}

func admitterClass(t *testing.T, admitter string, gated bool) class {
	switch admitter {
	case "admitRead", "admitOpen", "admitPeer":
		return classRead
	case "admitMutate":
		return classMutation
	case "admitAdmin":
		if gated {
			return classMutation
		}
		return classRead
	}
	t.Fatalf("unknown admitter %s", admitter)
	return classRead
}
