package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mathcloud/internal/core"
)

func TestMemoIndexApplyIncrementalResetAndOwnership(t *testing.T) {
	x := newMemoIndex()
	x.apply("r01", core.MemoIndexPage{Seq: 2, Entries: []core.MemoIndexEntry{
		{Key: "k1", Service: "s", JobID: "j1"},
		{Key: "k2", Service: "s", JobID: "j2"},
	}})
	if r, ok := x.lookup("k1"); !ok || r != "r01" {
		t.Fatalf("lookup k1 = %q %v", r, ok)
	}
	if x.size() != 2 {
		t.Fatalf("size = %d, want 2", x.size())
	}

	// A drop delta removes the key; dropping a key another replica has since
	// claimed must not clobber the new owner.
	x.apply("r02", core.MemoIndexPage{Seq: 1, Entries: []core.MemoIndexEntry{{Key: "k2", Service: "s", JobID: "j9"}}})
	if r, _ := x.lookup("k2"); r != "r02" {
		t.Fatalf("k2 owner after reclaim = %q, want r02 (last writer wins)", r)
	}
	x.apply("r01", core.MemoIndexPage{Seq: 3, Dropped: []string{"k1", "k2"}})
	if _, ok := x.lookup("k1"); ok {
		t.Fatal("k1 survived its drop delta")
	}
	if r, ok := x.lookup("k2"); !ok || r != "r02" {
		t.Fatalf("r01's stale drop removed r02's k2 (%q %v)", r, ok)
	}

	// A Reset page replaces everything previously attributed to the replica.
	x.apply("r02", core.MemoIndexPage{Seq: 9, Reset: true, Entries: []core.MemoIndexEntry{{Key: "k3", Service: "s", JobID: "j3"}}})
	if _, ok := x.lookup("k2"); ok {
		t.Fatal("k2 survived r02's Reset page")
	}
	if r, _ := x.lookup("k3"); r != "r02" {
		t.Fatal("Reset page entries not installed")
	}

	x.dropReplica("r02")
	if x.size() != 0 {
		t.Fatalf("size after dropReplica = %d, want 0", x.size())
	}
}

// federationTestGateway extends the placement-only test gateway with load
// reports and deterministic service descriptions.
func federationTestGateway(deterministic bool, loads map[string]core.LoadReport) *Gateway {
	g := newTestGateway(
		map[string][]string{"r01": {"s"}, "r02": {"s"}},
		map[string]bool{"r01": true, "r02": true},
	)
	for name, rs := range g.byName {
		rs.services["s"] = core.ServiceDescription{Name: "s", Version: "1", Deterministic: deterministic}
		if report, ok := loads[name]; ok {
			rs.load = report
			rs.loadOK = true
		}
	}
	return g
}

func TestP2CPlacementDrainsToShorterQueue(t *testing.T) {
	g := federationTestGateway(false, map[string]core.LoadReport{
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
	g := federationTestGateway(false, map[string]core.LoadReport{
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
	g := federationTestGateway(false, map[string]core.LoadReport{
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

func TestRouteSubmitPrefersIndexThenDigestHome(t *testing.T) {
	g := federationTestGateway(true, nil)
	key, err := core.CanonicalHash("s", "1", core.Values{"a": 1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	home, other := "r01", "r02"
	if rendezvousScore(key, "r02") > rendezvousScore(key, "r01") {
		home, other = other, home
	}
	route := func(want, why string) {
		t.Helper()
		rs, err := g.routeSubmit("s", core.Values{"a": 1.0})
		if err != nil || rs == nil || rs.name != want {
			t.Fatalf("%s: routed to %v (err %v), want %s", why, rs, err, want)
		}
	}

	route(home, "no index entry")
	// The shared index wins even when it disagrees with the home.
	before := metGwIndexHits.Value()
	g.memo.apply(other, core.MemoIndexPage{Seq: 1, Entries: []core.MemoIndexEntry{{Key: key, Service: "s", JobID: "j"}}})
	route(other, "index entry on the non-home replica")
	if after := metGwIndexHits.Value(); after != before+1 {
		t.Fatalf("index hits %v -> %v, want +1", before, after)
	}
	// An entry pointing outside the candidate set falls back to the home
	// rather than failing the submission.
	g.memo.dropReplica(other)
	g.memo.apply("r99", core.MemoIndexPage{Seq: 1, Entries: []core.MemoIndexEntry{{Key: key, Service: "s", JobID: "j"}}})
	route(home, "index entry on a non-candidate")
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
