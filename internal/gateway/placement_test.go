package gateway

import (
	"fmt"
	"testing"

	"mathcloud/internal/core"
)

func TestRendezvousScoreIsDeterministic(t *testing.T) {
	if rendezvousScore("svc", "r01") != rendezvousScore("svc", "r01") {
		t.Fatal("rendezvous score not stable across calls")
	}
	if rendezvousScore("svc", "r01") == rendezvousScore("svc", "r02") {
		t.Fatal("distinct replicas collide (astronomically unlikely with FNV-1a)")
	}
	if rendezvousScore("svc-a", "r01") == rendezvousScore("svc-b", "r01") {
		t.Fatal("distinct services collide for the same replica")
	}
}

// newTestGateway builds a placement-only gateway: replicas with advertised
// services and health marks, no HTTP.
func newTestGateway(services map[string][]string, healthy map[string]bool) *Gateway {
	g := &Gateway{
		byName:    make(map[string]*replicaState),
		hints:     newHintTable(64),
		memo:      newMemoIndex(),
		candCache: make(map[string]*candEntry),
	}
	for name, svcs := range services {
		rs := &replicaState{
			name:     name,
			healthy:  healthy[name],
			services: make(map[string]core.ServiceDescription),
		}
		for _, s := range svcs {
			rs.services[s] = core.ServiceDescription{Name: s}
		}
		g.replicas = append(g.replicas, rs)
		g.byName[name] = rs
	}
	return g
}

func TestServiceReplicasFiltersAndOrders(t *testing.T) {
	g := newTestGateway(
		map[string][]string{
			"r01": {"add"},
			"r02": {"add", "mul"},
			"r03": {"mul"},
			"r04": {"add"},
		},
		map[string]bool{"r01": true, "r02": true, "r03": true, "r04": false},
	)
	got := g.serviceReplicas("add")
	if len(got) != 2 {
		t.Fatalf("candidates for add: %d, want 2 (r04 is down)", len(got))
	}
	for _, rs := range got {
		if rs.name == "r04" || rs.name == "r03" {
			t.Fatalf("candidate %s should be excluded", rs.name)
		}
	}
	// The order is the rendezvous ranking and must be reproducible.
	again := g.serviceReplicas("add")
	for i := range got {
		if got[i].name != again[i].name {
			t.Fatal("rendezvous order not stable")
		}
	}
	if !g.serviceKnown("add") || g.serviceKnown("nope") {
		t.Fatal("serviceKnown wrong")
	}
	// r04 is down but advertised add at some point: known, yet no healthy
	// home when all advertisers vanish.
	if _, ok := g.homeReplica("nope"); ok {
		t.Fatal("homeReplica for unknown service")
	}
}

func TestSpreadRoundRobins(t *testing.T) {
	g := newTestGateway(
		map[string][]string{"r01": {"s"}, "r02": {"s"}, "r03": {"s"}},
		map[string]bool{"r01": true, "r02": true, "r03": true},
	)
	candidates := g.serviceReplicas("s")
	seen := make(map[string]int)
	for i := 0; i < 9; i++ {
		seen[g.spreadReplica(candidates).name]++
	}
	for name, n := range seen {
		if n != 3 {
			t.Fatalf("replica %s got %d of 9 submissions, want 3", name, n)
		}
	}
}

func TestHintTableGenerationsAndForget(t *testing.T) {
	h := newHintTable(8) // generation flips at 4 entries
	for i := 0; i < 4; i++ {
		h.put(fmt.Sprintf("k%d", i), "r01")
	}
	// Touch k0 so it survives the flip by promotion.
	h.put("k4", "r02") // flips: k0..k3 move to the old generation
	if v, ok := h.get("k0"); !ok || v != "r01" {
		t.Fatalf("k0 lost after one flip: %v %v", v, ok)
	}
	// k0 was promoted into the young generation; a second flip drops the
	// rest of the old cohort but keeps promoted entries one round longer.
	for i := 5; i < 9; i++ {
		h.put(fmt.Sprintf("k%d", i), "r02")
	}
	if _, ok := h.get("k0"); !ok {
		t.Fatal("promoted hint did not survive the next flip")
	}

	h.forget("r02")
	if _, ok := h.get("k4"); ok {
		t.Fatal("forget left a hint pointing at the dropped replica")
	}
	if _, ok := h.get("k0"); !ok {
		t.Fatal("forget removed hints of other replicas")
	}
}

func TestSplitResource(t *testing.T) {
	cases := []struct{ in, resource, id string }{
		{"/services/x/jobs/abc/events", "/services/x/jobs/abc", "abc"},
		{"/services/x/sweeps/r01-ff/events", "/services/x/sweeps/r01-ff", "r01-ff"},
		{"/services/x/events", "/services/x", "x"},
	}
	for _, c := range cases {
		res, id := splitResource(c.in)
		if res != c.resource || id != c.id {
			t.Fatalf("splitResource(%q) = (%q, %q), want (%q, %q)", c.in, res, id, c.resource, c.id)
		}
	}
}

func TestStatusClass(t *testing.T) {
	if statusClass(200) != "2xx" || statusClass(404) != "4xx" || statusClass(502) != "5xx" {
		t.Fatal("statusClass wrong")
	}
}
