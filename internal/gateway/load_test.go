package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
