package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/rest"
)

const fakeJobID = "r01-0123456789abcdef0123456789abcdef"

// fakeFederation is a gateway stub in front of one replica, r01, mounted
// under the path prefix /mc.  A request asking for a route is answered with
// a 307 to routeTo (the replica, unless a test points it elsewhere); one
// that does not is answered by the gateway itself, as the replica would
// answer it, or with status proxied when that is set.
type fakeFederation struct {
	gw, replica *httptest.Server

	mu       sync.Mutex
	routeTo  string // base a route leads to
	identity string // the replica's X-MC-Replica
	proxied  int    // status of unrouted answers; 0 = the replica's
	gwSeen   []string
}

func newFakeFederation(t *testing.T) *fakeFederation {
	t.Helper()
	f := &fakeFederation{identity: "r01"}
	f.replica = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		w.Header().Set(core.ReplicaHeader, f.identity)
		f.mu.Unlock()
		f.serve(w, r, strings.TrimPrefix(r.URL.Path, "/mc"))
	}))
	t.Cleanup(f.replica.Close)
	f.routeTo = f.replica.URL + "/mc"
	f.gw = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.gwSeen = append(f.gwSeen, r.Method+" "+r.URL.Path+" "+r.Header.Get("Prefer"))
		routeTo, proxied := f.routeTo, f.proxied
		f.mu.Unlock()
		switch {
		case r.Header.Get("Prefer") == core.RoutePreference:
			w.Header().Set("Location", routeTo+r.URL.RequestURI())
			w.Header().Set("Preference-Applied", core.RoutePreference)
			w.WriteHeader(http.StatusTemporaryRedirect)
		case proxied != 0:
			w.WriteHeader(proxied)
			json.NewEncoder(w).Encode(map[string]any{"error": "replica r01 unreachable", "status": proxied})
		default:
			f.serve(w, r, r.URL.Path)
		}
	}))
	t.Cleanup(f.gw.Close)
	return f
}

// serve answers the echo service's submit and its job's reads, by path
// relative to the API base.
func (f *fakeFederation) serve(w http.ResponseWriter, r *http.Request, path string) {
	job := core.Job{ID: fakeJobID, Service: "echo", State: core.StateDone, URI: f.gw.URL + "/services/echo/jobs/" + fakeJobID}
	switch {
	case r.Method == http.MethodPost && path == "/services/echo":
		var in core.Values
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		job.Outputs = in
		w.WriteHeader(http.StatusCreated)
	case path == "/services/echo/jobs/"+fakeJobID:
	default:
		w.WriteHeader(http.StatusNotFound)
	}
	json.NewEncoder(w).Encode(job)
}

func (f *fakeFederation) set(fn func(*fakeFederation)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

// seen returns and resets what the gateway saw: "METHOD path prefer".
func (f *fakeFederation) seen() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.gwSeen
	f.gwSeen = nil
	return out
}

// quickRetry is a two-attempt policy with no noticeable backoff.
var quickRetry = &rest.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}

// routeOf reports where the client would send a read of the fake job.
func routeOf(c *Client, f *fakeFederation) string {
	u, _ := url.Parse(f.gw.URL + "/services/echo/jobs/" + fakeJobID)
	direct, _, _ := c.lookup(u)
	if direct == nil {
		return ""
	}
	return direct.String()
}

// held reports whether the client holds off asking the fake gateway for
// routes.
func held(c *Client, f *fakeFederation) bool {
	u, _ := url.Parse(f.gw.URL + "/services/echo")
	_, _, held := c.lookup(u)
	return held
}

// TestRouteCacheLearnsUsesAndForgets follows a route through its life: a
// submit redirected to a replica under a path prefix teaches the cache the
// replica's base, the next read of the job goes straight there, and once
// the replica is gone the read drops the route and its retry goes through
// the gateway without the preference.
func TestRouteCacheLearnsUsesAndForgets(t *testing.T) {
	f := newFakeFederation(t)
	c := &Client{HTTP: &http.Client{}, Retry: quickRetry}
	svc := c.Service(f.gw.URL + "/services/echo")
	ctx := context.Background()

	job, err := svc.Submit(ctx, core.Values{"x": 1.0}, time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.Outputs["x"] != 1.0 {
		t.Fatalf("submit body was not replayed on the redirect: %v", job.Outputs)
	}
	if seen := f.seen(); len(seen) != 1 || seen[0] != "POST /services/echo "+core.RoutePreference {
		t.Fatalf("gateway saw %q, want one routed POST", seen)
	}
	want := f.replica.URL + "/mc/services/echo/jobs/" + fakeJobID
	if got := routeOf(c, f); got != want {
		t.Fatalf("a read of the job would go to %q, want %s", got, want)
	}

	if _, err := svc.Job(ctx, job.URI); err != nil {
		t.Fatalf("cached read: %v", err)
	}
	if seen := f.seen(); len(seen) != 0 {
		t.Fatalf("a cached read reached the gateway: %q", seen)
	}

	f.replica.Close()
	f.set(func(f *fakeFederation) { f.proxied = http.StatusBadGateway })
	_, err = svc.Job(ctx, job.URI)
	if api, ok := err.(*APIError); !ok || api.Status != http.StatusBadGateway {
		t.Fatalf("read of a dead replica: %v, want the gateway's 502", err)
	}
	if seen := f.seen(); len(seen) != 1 || seen[0] != "GET /services/echo/jobs/"+fakeJobID+" " {
		t.Fatalf("gateway saw %q, want one retry without the preference", seen)
	}
	if got := routeOf(c, f); got != "" {
		t.Fatalf("route to the dead replica survived: %s", got)
	}
	if held(c, f) {
		t.Fatal("a stale cached route put the gateway's routes on hold")
	}
}

// TestNoRetryMakesOneAttempt pins that routing adds no attempt of its own:
// under rest.NoRetry a transient answer, or a failed cached hop, is the one
// attempt.
func TestNoRetryMakesOneAttempt(t *testing.T) {
	var hits int
	var mu sync.Mutex
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"error": "queue full", "status": 503})
	}))
	defer busy.Close()
	c := &Client{HTTP: &http.Client{}, Retry: rest.NoRetry}
	_, err := c.Service(busy.URL+"/services/echo").Submit(context.Background(), core.Values{"x": 1.0}, 0)
	if api, ok := err.(*APIError); !ok || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit to a busy container: %v, want its 503", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Fatalf("a NoRetry submit answered 503 reached the container %d times, want 1", hits)
	}

	f := newFakeFederation(t)
	svc := c.Service(f.gw.URL + "/services/echo")
	job, err := svc.Submit(context.Background(), core.Values{"x": 1.0}, 0)
	if err != nil {
		t.Fatalf("routed submit: %v", err)
	}
	f.seen()
	f.replica.Close()
	if _, err := svc.Job(context.Background(), job.URI); err == nil {
		t.Fatal("a NoRetry read of a dead replica succeeded")
	}
	if seen := f.seen(); len(seen) != 0 {
		t.Fatalf("a NoRetry read was replayed through the gateway: %q", seen)
	}
	if got := routeOf(c, f); got != "" {
		t.Fatalf("route to the dead replica survived: %s", got)
	}
}

// TestRoutesHeldWhileReplicaOutOfReach points the gateway's routes at an
// address this client cannot reach while the gateway itself serves the
// request.  The retry through the gateway succeeds, and the client stops
// asking that gateway for routes; when the gateway cannot reach the replica
// either, it is down, and the client keeps asking.
func TestRoutesHeldWhileReplicaOutOfReach(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		name    string
		proxied int
		held    bool
	}{
		{"gateway reaches it", 0, true},
		{"replica down", http.StatusBadGateway, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeFederation(t)
			f.set(func(f *fakeFederation) { f.routeTo, f.proxied = dead.URL, tc.proxied })
			c := &Client{HTTP: &http.Client{}, Retry: quickRetry}
			svc := c.Service(f.gw.URL + "/services/echo")
			_, err := svc.Submit(context.Background(), core.Values{"x": 1.0}, 0)
			if tc.proxied == 0 && err != nil {
				t.Fatalf("submit: %v", err)
			}
			if seen := f.seen(); len(seen) != 2 || !strings.HasSuffix(seen[0], core.RoutePreference) || strings.HasSuffix(seen[1], core.RoutePreference) {
				t.Fatalf("gateway saw %q, want a routed POST and then an unrouted one", seen)
			}
			if held(c, f) != tc.held {
				t.Fatalf("routes held: %v, want %v", held(c, f), tc.held)
			}
			svc.Submit(context.Background(), core.Values{"x": 2.0}, 0)
			if seen := f.seen(); len(seen) == 0 || strings.HasSuffix(seen[0], core.RoutePreference) == tc.held {
				t.Fatalf("next submit: gateway saw %q with routes held %v", seen, tc.held)
			}
		})
	}
}

// TestRouteRejectsForeignAnswer sends a route to a server that is not the
// replica: a redirect target that answers with no replica identity, and a
// cached address where another replica now answers.  Neither answer reaches
// the caller; the request is retried through the gateway.
func TestRouteRejectsForeignAnswer(t *testing.T) {
	foreign := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(core.Job{ID: "not-a-mathcloud-job", State: core.StateDone})
	}))
	defer foreign.Close()
	f := newFakeFederation(t)
	f.set(func(f *fakeFederation) { f.routeTo = foreign.URL })
	c := &Client{HTTP: &http.Client{}, Retry: quickRetry}
	svc := c.Service(f.gw.URL + "/services/echo")
	job, err := svc.Submit(context.Background(), core.Values{"x": 1.0}, 0)
	if err != nil || job.ID != fakeJobID {
		t.Fatalf("submit routed to a foreign server: %+v, %v; want the gateway's answer", job, err)
	}
	if !held(c, f) {
		t.Fatal("routes not held after a route led to a foreign server")
	}

	f = newFakeFederation(t)
	c = &Client{HTTP: &http.Client{}, Retry: quickRetry}
	svc = c.Service(f.gw.URL + "/services/echo")
	if _, err := svc.Submit(context.Background(), core.Values{"x": 1.0}, 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	f.seen()
	f.set(func(f *fakeFederation) { f.identity = "r02" })
	if _, err := svc.Job(context.Background(), f.gw.URL+"/services/echo/jobs/"+fakeJobID); err != nil {
		t.Fatalf("read: %v", err)
	}
	if seen := f.seen(); len(seen) != 1 || strings.HasSuffix(seen[0], core.RoutePreference) {
		t.Fatalf("gateway saw %q, want the read retried there unrouted", seen)
	}
	if got := routeOf(c, f); got != "" {
		t.Fatalf("route to an address r02 answers from survived: %s", got)
	}

	c.Retry = rest.NoRetry
	f.set(func(f *fakeFederation) { f.routeTo = foreign.URL })
	c.release(f.gw.Listener.Addr().String())
	if _, err := svc.Submit(context.Background(), core.Values{"x": 1.0}, 0); err == nil || errors.As(err, new(*APIError)) {
		t.Fatalf("NoRetry submit routed to a foreign server: %v, want a routing error", err)
	}
}
