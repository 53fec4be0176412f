package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/core"
)

// federationTestGateway extends the placement-only test gateway with load
// reports.
func federationTestGateway(loads map[string]core.LoadReport) *Gateway {
	g := newTestGateway(
		map[string][]string{"r01": {"s"}, "r02": {"s"}},
		map[string]bool{"r01": true, "r02": true},
	)
	for name, rs := range g.byName {
		if report, ok := loads[name]; ok {
			rs.load = report
			rs.loadOK = true
		}
	}
	return g
}

func TestP2CPlacementDrainsToShorterQueue(t *testing.T) {
	g := federationTestGateway(map[string]core.LoadReport{
		"r01": {QueueDepth: 100, QueueCap: 128},
		"r02": {QueueDepth: 0, QueueCap: 128},
	})
	candidates := g.serviceReplicas("s")
	if len(candidates) != 2 {
		t.Fatalf("candidates = %d", len(candidates))
	}
	// With two candidates p2c always compares both, so every single pick
	// must land on the idle replica.
	for i := 0; i < 64; i++ {
		if rs := spreadReplica(&g.rrCursor, candidates); rs.name != "r02" {
			t.Fatalf("pick %d went to loaded replica %s", i, rs.name)
		}
	}
}

func TestAdmissionRefusesWhenAllSaturated(t *testing.T) {
	g := federationTestGateway(map[string]core.LoadReport{
		"r01": {QueueDepth: 128, QueueCap: 128},
		"r02": {QueueDepth: 128, QueueCap: 128},
	})
	candidates := g.serviceReplicas("s")
	if _, err := g.placeSpread(candidates); err == nil {
		t.Fatal("placeSpread admitted work into a fully saturated federation")
	} else {
		var unavail *core.UnavailableError
		if !errors.As(err, &unavail) || unavail.RetryAfter <= 0 {
			t.Fatalf("saturation error = %v, want UnavailableError with retry hint", err)
		}
	}

	// One replica freeing a slot re-opens admission.
	g.byName["r02"].load.QueueDepth = 127
	if _, err := g.placeSpread(candidates); err != nil {
		t.Fatalf("placeSpread after drain: %v", err)
	}

	// A replica with no load report never saturates the set: unknown load
	// is probed with work, not starved.
	g.byName["r02"].load.QueueDepth = 128
	g.byName["r02"].loadOK = false
	if _, err := g.placeSpread(candidates); err != nil {
		t.Fatalf("placeSpread with unknown load: %v", err)
	}
}

func TestSaturatedSubmitReturns503WithRetryAfter(t *testing.T) {
	g := federationTestGateway(map[string]core.LoadReport{
		"r01": {QueueDepth: 64, QueueCap: 64},
		"r02": {QueueDepth: 64, QueueCap: 64},
	})
	srv := httptest.NewServer(g.APIHandler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/services/s", "application/json", strings.NewReader(`{"a": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After hint")
	}
}

func TestCandidateCacheInvalidatedByTopologyGeneration(t *testing.T) {
	g := newTestGateway(
		map[string][]string{"r01": {"s"}, "r02": {"s"}},
		map[string]bool{"r01": true, "r02": true},
	)
	if got := g.serviceReplicas("s"); len(got) != 2 {
		t.Fatalf("initial candidates = %d", len(got))
	}
	// A health flip without a generation bump serves the cached list — that
	// is the point of the cache (no per-submit rescan)...
	rs := g.byName["r01"]
	rs.mu.Lock()
	rs.healthy = false
	rs.mu.Unlock()
	if got := g.serviceReplicas("s"); len(got) != 2 {
		t.Fatalf("cached candidates = %d, want the stale 2 before invalidation", len(got))
	}
	// ...and the generation bump (what markReplicaDown/probeReplica do on
	// any state change) lazily invalidates every service's entry.
	g.topoGen.Add(1)
	got := g.serviceReplicas("s")
	if len(got) != 1 || got[0].name != "r02" {
		t.Fatalf("candidates after invalidation = %+v, want just r02", got)
	}
}

func TestReplicaStateQueueDepthUnknownLoadLooksIdle(t *testing.T) {
	rs := &replicaState{name: "r01"}
	if rs.queueDepth() != 0 {
		t.Fatal("unknown load should read as depth 0")
	}
	rs.load = core.LoadReport{QueueDepth: 7}
	rs.loadOK = true
	if rs.queueDepth() != 7 {
		t.Fatal("known load not reported")
	}
	if _, ok := rs.loadReport(); !ok {
		t.Fatal("loadReport ok flag wrong")
	}
}

// TestLeaseGrantRules pins when a submission's 307 grants a spread lease:
// for a submission placed afresh (the service is not deterministic), by
// input locality or by spread, while no candidate advertises a full queue
// and the gateway polls load.  The lease lists the candidates in the
// gateway's order for one load interval.  Sweeps, which have a handler of
// their own, never get one (handleSweepSubmit grants none).
func TestLeaseGrantRules(t *testing.T) {
	leasing := func(loadEvery time.Duration) *Gateway {
		g := localityGateway()
		g.loadEvery = loadEvery
		for _, rs := range g.replicas {
			rs.base = "http://" + rs.name + ".example:8191"
		}
		return g
	}
	g := leasing(2 * time.Second)
	plain := submitBody(t, core.Values{"x": 1.0})
	_, lease, err := g.routeSubmit("s", plain)
	if err != nil || len(lease) != 1 {
		t.Fatalf("spread submission: lease %q, %v; want one", lease, err)
	}
	l, err := core.ParseSpreadLease(lease[0])
	if err != nil || l.For != 2*time.Second || len(l.Replicas) != 3 {
		t.Fatalf("lease %q parses to %+v, %v; want three replicas for 2s", lease[0], l, err)
	}
	for i, rs := range g.serviceReplicas("s") {
		if l.Replicas[i] != (core.LeasedReplica{Name: rs.name, Base: rs.base}) {
			t.Fatalf("lease replica %d is %+v, want %s at %s", i, l.Replicas[i], rs.name, rs.base)
		}
	}
	if _, lease, _ := g.routeSubmit("det", plain); lease != nil {
		t.Fatalf("deterministic submission granted %q", lease)
	}
	for _, owner := range []string{"r02", "r09"} { // placed by locality, then by spread
		withFile := submitBody(t, core.Values{"f": core.FileRef(fileID(owner, 1))})
		if rs, lease, err := g.routeSubmit("s", withFile); err != nil || len(lease) != 1 || lease[0] != g.candidates("s").lease[0] {
			t.Fatalf("submission referencing a file on %s: placed %v, lease %q, %v; want the service's lease", owner, rs, lease, err)
		} else if owner == "r02" && rs.name != "r02" {
			t.Fatalf("submission referencing a file on r02 placed on %s", rs.name)
		}
	}
	detFile := submitBody(t, core.Values{"f": core.FileRef(fileID("r02", 1))})
	if _, lease, _ := g.routeSubmit("det", detFile); lease != nil {
		t.Fatalf("deterministic submission referencing a file granted %q", lease)
	}
	sweep := httptest.NewRequest(http.MethodPost, "/services/s/sweeps", strings.NewReader(`{"template": {}, "axes": {"x": [1, 2]}}`))
	sweep.Header.Set("Prefer", core.RoutePreference)
	w := httptest.NewRecorder()
	g.handleSweepSubmit(w, sweep, "s")
	if w.Code != http.StatusTemporaryRedirect || w.Header().Get(core.SpreadLeaseHeader) != "" {
		t.Fatalf("routed sweep: status %d, lease %q; want a 307 granting none", w.Code, w.Header().Get(core.SpreadLeaseHeader))
	}
	g.byName["r02"].load = core.LoadReport{QueueDepth: 8, QueueCap: 8}
	if rs, lease, err := g.routeSubmit("s", plain); err != nil || rs == nil || lease != nil {
		t.Fatalf("with a full queue: placed %v, lease %q, %v; want placed and no lease", rs, lease, err)
	}
	if _, lease, _ := leasing(-1).routeSubmit("s", plain); lease != nil {
		t.Fatalf("gateway polling no load granted %q", lease)
	}
}
