package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/rest"
)

// interposer answers the next POST a replica's listener receives itself,
// once, in place of the replica.
type interposer struct {
	mu     sync.Mutex
	answer http.HandlerFunc
}

func (p *interposer) arm(h http.HandlerFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.answer = h
}

// interpose moves r behind a listener with an interposer; the gateway must
// not have been started over r yet.
func interpose(t *testing.T, r *replica) *interposer {
	t.Helper()
	p := &interposer{}
	h := r.c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		p.mu.Lock()
		answer := p.answer
		if req.Method != http.MethodPost {
			answer = nil
		}
		if answer != nil {
			p.answer = nil
		}
		p.mu.Unlock()
		if answer != nil {
			answer(w, req)
			return
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(srv.Close)
	r.srv.Close()
	r.srv = srv
	return p
}

// leased is a two-replica federation of the non-deterministic add service
// whose routed client holds a spread lease: its first submit was granted
// one on its 307 and answered by first; the lease sends the next submit to
// next.
type leased struct {
	gw          *httptest.Server
	svc         *client.Service
	rec         *recorder
	first, next *replica
	jobs        []*core.Job // every job answered so far
}

func newLeased(t *testing.T, opts gateway.Options, wrap bool) (*leased, map[string]*interposer) {
	t.Helper()
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	var ips map[string]*interposer
	if wrap {
		ips = map[string]*interposer{"r01": interpose(t, r1), "r02": interpose(t, r2)}
	}
	_, gw := startGateway(t, opts, r1, r2)
	api, rec := routedClient()
	api.Retry = &rest.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	l := &leased{gw: gw, svc: api.Service(gw.URL + "/services/add"), rec: rec}
	job := submitDone(t, l.svc, core.Values{"a": 1.0})
	l.jobs = append(l.jobs, job)
	if h := rec.hops; len(h) != 2 || h[0].status != http.StatusTemporaryRedirect || h[1].status != http.StatusCreated {
		t.Fatalf("first submit took %+v, want a 307 and the replica's 201", h)
	}
	l.first, l.next = r1, r2
	if mustReplicaOf(t, job.ID) == "r02" {
		l.first, l.next = r2, r1
	}
	l.takeHops()
	return l, ips
}

// takeHops returns and resets what the recorder saw.
func (l *leased) takeHops() []hop {
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	h := l.rec.hops
	l.rec.hops = nil
	return h
}

// wantHops fails t unless hops are, in order, to the given hosts with the
// given Prefer values and statuses.
func wantHops(t *testing.T, what string, hops []hop, want ...hop) {
	t.Helper()
	ok := len(hops) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = hops[i].host == want[i].host && hops[i].prefer == want[i].prefer && hops[i].status == want[i].status
	}
	if !ok {
		t.Fatalf("%s took %+v, want %+v", what, hops, want)
	}
}

// asksGateway submits once more and fails t unless the submit went to the
// gateway with the route preference: no lease is held.
func (l *leased) asksGateway(t *testing.T) {
	t.Helper()
	job := submitDone(t, l.svc, core.Values{"a": 9.0})
	l.jobs = append(l.jobs, job)
	hops := l.takeHops()
	if len(hops) == 0 || hops[0].host != hostOf(l.gw.URL) || hops[0].prefer != core.RoutePreference || hops[0].status != http.StatusTemporaryRedirect {
		t.Fatalf("submit after the lease was dropped took %+v, want a routed 307 from the gateway first", hops)
	}
}

// TestLeaseToKilledReplicaRetriesUnrouted: the lease sends a submit to a
// replica that was killed.  The connection fails, the lease is dropped,
// and the retry goes through the gateway unrouted; the gateway, placing it
// on the dead replica as its own round-robin does, marks the replica down
// and answers 502, which a POST does not retry.  No job is lost or made
// twice: the replicas hold exactly the jobs that were answered.
func TestLeaseToKilledReplicaRetriesUnrouted(t *testing.T) {
	l, _ := newLeased(t, gateway.Options{LoadInterval: time.Hour}, false)
	l.next.srv.Close()
	_, err := l.svc.Submit(context.Background(), core.Values{"a": 2.0}, 15*time.Second)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("submit leased to a dead replica: %v, want the gateway's 502", err)
	}
	wantHops(t, "submit leased to a dead replica", l.takeHops(),
		hop{host: hostOf(l.next.srv.URL)},
		hop{host: hostOf(l.gw.URL), status: http.StatusBadGateway})
	status, data := rawDo(t, http.MethodGet, l.gw.URL+"/replicas", nil)
	var view struct{ Replicas []gateway.ReplicaStatus }
	if err := json.Unmarshal(data, &view); status != http.StatusOK || err != nil {
		t.Fatalf("GET /replicas: %d %v", status, err)
	}
	for _, rs := range view.Replicas {
		if rs.Healthy != (rs.Name == l.first.name) {
			t.Fatalf("replica %s healthy %v after the unrouted retry, want only %s healthy", rs.Name, rs.Healthy, l.first.name)
		}
	}
	l.asksGateway(t)
	if name := mustReplicaOf(t, l.jobs[len(l.jobs)-1].ID); name != l.first.name {
		t.Fatalf("submit after the failover ran on %s, want the survivor %s", name, l.first.name)
	}
	held := map[string]bool{}
	for _, r := range []*replica{l.first, l.next} {
		for _, j := range r.c.Jobs().List("add") {
			if held[j.ID] {
				t.Fatalf("job %s held twice", j.ID)
			}
			held[j.ID] = true
		}
	}
	if len(held) != len(l.jobs) {
		t.Fatalf("replicas hold %d jobs, %d were answered", len(held), len(l.jobs))
	}
	for _, j := range l.jobs {
		if !held[j.ID] {
			t.Fatalf("answered job %s is on no replica", j.ID)
		}
	}
}

// TestLeaseDroppedOnQueueFull: a leased replica answers 503 (its queue is
// full).  The lease is dropped and the retry asks the gateway, which
// places the job itself.
func TestLeaseDroppedOnQueueFull(t *testing.T) {
	l, ips := newLeased(t, gateway.Options{LoadInterval: time.Hour}, true)
	name := l.next.name
	ips[name].arm(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(core.ReplicaHeader, name)
		w.Header().Set("Retry-After", "0")
		rest.WriteJSON(w, http.StatusServiceUnavailable, rest.ErrorBody{Error: "queue full", Status: http.StatusServiceUnavailable})
	})
	job := submitDone(t, l.svc, core.Values{"a": 2.0})
	l.jobs = append(l.jobs, job)
	wantHops(t, "submit leased to a full replica", l.takeHops(),
		hop{host: hostOf(l.next.srv.URL), status: http.StatusServiceUnavailable},
		hop{host: hostOf(l.gw.URL), status: http.StatusCreated})
	l.asksGateway(t)
}

// TestLeaseRejectsWrongReplica: something other than the leased replica
// answers at its base.  The answer is rejected as a routed one is, the
// lease is dropped, and the retry goes through the gateway unrouted.
func TestLeaseRejectsWrongReplica(t *testing.T) {
	l, ips := newLeased(t, gateway.Options{LoadInterval: time.Hour}, true)
	ips[l.next.name].arm(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(core.ReplicaHeader, "r09")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(core.Job{ID: "r09-0123456789abcdef0123456789abcdef", State: core.StateDone})
	})
	job := submitDone(t, l.svc, core.Values{"a": 2.0})
	if name := mustReplicaOf(t, job.ID); name == "r09" {
		t.Fatalf("the answer of r09 at %s's base reached the caller", l.next.name)
	}
	l.jobs = append(l.jobs, job)
	wantHops(t, "submit leased to an address another replica answers", l.takeHops(),
		hop{host: hostOf(l.next.srv.URL), status: http.StatusCreated},
		hop{host: hostOf(l.gw.URL), status: http.StatusCreated})
	l.asksGateway(t)
}

// TestLeaseExpiryAsksGateway: a lease lasts one load interval.  A submit
// inside it goes straight to the next replica; one after it asks the
// gateway again.
func TestLeaseExpiryAsksGateway(t *testing.T) {
	const interval = time.Second
	granted := time.Now()
	l, _ := newLeased(t, gateway.Options{LoadInterval: interval}, false)
	job := submitDone(t, l.svc, core.Values{"a": 2.0})
	hops := l.takeHops()
	if time.Since(granted) < interval/2 {
		wantHops(t, "submit inside the lease", hops, hop{host: hostOf(l.next.srv.URL), status: http.StatusCreated})
		if name := mustReplicaOf(t, job.ID); name != l.next.name {
			t.Fatalf("submit inside the lease ran on %s, want %s", name, l.next.name)
		}
	}
	time.Sleep(time.Until(granted.Add(interval + 100*time.Millisecond)))
	l.asksGateway(t)
}
