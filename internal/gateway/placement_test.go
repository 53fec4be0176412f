package gateway

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// fileID is a federation file ID minted on the named replica.
func fileID(replica string, n int) string {
	return fmt.Sprintf("%s-%032x", replica, n)
}

// localityGateway is three healthy replicas advertising "s" (and a
// deterministic twin "det"), every queue at 1 of 8.
func localityGateway() *Gateway {
	all := map[string]bool{"r01": true, "r02": true, "r03": true}
	g := newTestGateway(map[string][]string{"r01": {"s"}, "r02": {"s"}, "r03": {"s"}}, all)
	for _, rs := range g.replicas {
		rs.services["det"] = core.ServiceDescription{Name: "det", Version: "1", Deterministic: true}
		rs.load, rs.loadOK = core.LoadReport{QueueDepth: 1, QueueCap: 8}, true
	}
	return g
}

// TestRouteSubmitInputLocality pins the placement order around file inputs:
// the job goes to the replica owning most of its input files, and every case
// locality cannot decide is left to p2c, which shows as one step of the
// round-robin cursor per submission (a locality placement takes none).
func TestRouteSubmitInputLocality(t *testing.T) {
	const gw = "http://gw.example:8190/files/"
	cases := []struct {
		name   string
		inputs core.Values
		setup  func(g *Gateway)
		want   string   // locality decides: this replica, cursor untouched
		spread []string // locality abstains: p2c among exactly these
	}{
		{name: "single input on r02",
			inputs: core.Values{"f": core.FileRef(fileID("r02", 1)), "n": 3.0},
			want:   "r02"},
		{name: "absolute URI reference",
			inputs: core.Values{"f": core.FileRef(gw + fileID("r03", 1))},
			want:   "r03"},
		{name: "two inputs on r01 outvote one on r02",
			inputs: core.Values{
				"a": core.FileRef(fileID("r01", 1)),
				"b": core.FileRef(gw + fileID("r01", 2)),
				"c": core.FileRef(fileID("r02", 3))},
			want: "r01"},
		{name: "one-to-one tie is left to p2c",
			inputs: core.Values{
				"a": core.FileRef(fileID("r01", 1)),
				"b": core.FileRef(fileID("r02", 2))},
			spread: []string{"r01", "r02", "r03"}},
		{name: "saturated owner is left to p2c, not refused",
			inputs: core.Values{"f": core.FileRef(fileID("r02", 1))},
			setup: func(g *Gateway) {
				g.byName["r02"].load = core.LoadReport{QueueDepth: 8, QueueCap: 8}
			},
			spread: []string{"r01", "r03"}},
		{name: "unhealthy owner is left to p2c",
			inputs: core.Values{"f": core.FileRef(fileID("r02", 1))},
			setup:  func(g *Gateway) { g.byName["r02"].healthy = false },
			spread: []string{"r01", "r03"}},
		{name: "owner not advertising the service is left to p2c",
			inputs: core.Values{"f": core.FileRef(fileID("r02", 1))},
			setup:  func(g *Gateway) { delete(g.byName["r02"].services, "s") },
			spread: []string{"r01", "r03"}},
		{name: "owner outside the federation is left to p2c",
			inputs: core.Values{"f": core.FileRef("http://elsewhere.example/files/" + fileID("r09", 1))},
			spread: []string{"r01", "r02", "r03"}},
		{name: "plain strings that look like file IDs are ignored",
			inputs: core.Values{"label": fileID("r01", 1), "note": "r01-draft", "n": 1.0},
			spread: []string{"r01", "r02", "r03"}},
		{name: "no file inputs",
			inputs: core.Values{"n": 1.0},
			spread: []string{"r01", "r02", "r03"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := localityGateway()
			if tc.setup != nil {
				tc.setup(g)
			}
			const rounds = 6
			seen := make(map[string]int)
			for i := 0; i < rounds; i++ {
				rs, _, hinted, err := g.routeSubmit("s", tc.inputs)
				if err != nil || rs == nil || hinted {
					t.Fatalf("routeSubmit = %v hinted=%v err=%v", rs, hinted, err)
				}
				seen[rs.name]++
			}
			if tc.want != "" {
				if seen[tc.want] != rounds {
					t.Fatalf("placements = %v, want all %d on %s", seen, rounds, tc.want)
				}
				if n := g.rrCursor.Load(); n != 0 {
					t.Fatalf("file-bearing submissions advanced the spread cursor to %d", n)
				}
				return
			}
			if n := g.rrCursor.Load(); n != rounds {
				t.Fatalf("cursor = %d after %d submissions, want p2c to place each one", n, rounds)
			}
			placed := 0
			for _, name := range tc.spread {
				if seen[name] == 0 {
					t.Fatalf("placements = %v, want a spread over %v", seen, tc.spread)
				}
				placed += seen[name]
			}
			if placed != rounds {
				t.Fatalf("placements = %v, want none outside %v", seen, tc.spread)
			}
		})
	}
}

func TestMemoIndexHitWinsOverInputLocality(t *testing.T) {
	g := localityGateway()
	inputs := core.Values{"f": core.FileRef(fileID("r02", 1))}
	key, err := core.CanonicalHash("det", "1", inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No entry yet: the deterministic service is placed on its data.
	rs, gotKey, hinted, err := g.routeSubmit("det", inputs)
	if err != nil || rs.name != "r02" || hinted || gotKey != key {
		t.Fatalf("fresh route = %v %q hinted=%v err=%v, want r02 by locality", rs, gotKey, hinted, err)
	}
	// r03 holds the result: recomputing next to the file loses to not
	// computing at all.
	g.memo.apply("r03", core.MemoIndexPage{Seq: 1, Entries: []core.MemoIndexEntry{{Key: key, Service: "det", JobID: "j"}}})
	rs, _, hinted, err = g.routeSubmit("det", inputs)
	if err != nil || rs.name != "r03" || !hinted {
		t.Fatalf("memo route = %v hinted=%v err=%v, want r03 by memo index", rs, hinted, err)
	}
}

// stubReplicas puts a recording HTTP server behind every replica of a
// placement-only gateway, so handlers that end in forward can be driven.
// The returned function reports how many requests each replica received.
func stubReplicas(t *testing.T, g *Gateway, handler func(name string, r *http.Request)) func() map[string]int {
	t.Helper()
	var mu sync.Mutex
	hits := make(map[string]int)
	for _, rs := range g.replicas {
		name := rs.name
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			mu.Lock()
			hits[name]++
			mu.Unlock()
			if handler != nil {
				handler(name, r)
			}
			w.WriteHeader(http.StatusCreated)
			_, _ = io.WriteString(w, "{}")
		}))
		t.Cleanup(srv.Close)
		rs.base = srv.URL
	}
	g.client = &http.Client{}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(hits))
		for k, v := range hits {
			out[k] = v
		}
		return out
	}
}

func TestSweepSubmitFollowsTemplateFiles(t *testing.T) {
	post := func(t *testing.T, url, body string) {
		t.Helper()
		resp, err := http.Post(url+"/services/s/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("sweep submit = %d, want 201 from the stub replica", resp.StatusCode)
		}
	}
	axes := `"axes":{"n":[1,2,3]}`

	t.Run("template file decides", func(t *testing.T) {
		g := localityGateway()
		hits := stubReplicas(t, g, nil)
		srv := httptest.NewServer(g.APIHandler())
		defer srv.Close()
		for i := 0; i < 4; i++ {
			post(t, srv.URL, `{"template":{"f":"file:`+fileID("r02", 1)+`"},`+axes+`}`)
		}
		if got := hits(); got["r02"] != 4 || len(got) != 1 {
			t.Fatalf("campaigns landed on %v, want all 4 on r02", got)
		}
		if n := g.rrCursor.Load(); n != 0 {
			t.Fatalf("file-bearing sweeps advanced the spread cursor to %d", n)
		}
	})
	t.Run("saturated owner falls back to spread", func(t *testing.T) {
		g := localityGateway()
		g.byName["r02"].load = core.LoadReport{QueueDepth: 8, QueueCap: 8}
		hits := stubReplicas(t, g, nil)
		srv := httptest.NewServer(g.APIHandler())
		defer srv.Close()
		for i := 0; i < 4; i++ {
			post(t, srv.URL, `{"template":{"f":"file:`+fileID("r02", 1)+`"},`+axes+`}`)
		}
		if got := hits(); got["r02"] != 0 || got["r01"]+got["r03"] != 4 {
			t.Fatalf("campaigns landed on %v, want all 4 on r01 and r03", got)
		}
	})
	t.Run("no template file and unparsable body spread", func(t *testing.T) {
		g := localityGateway()
		hits := stubReplicas(t, g, nil)
		srv := httptest.NewServer(g.APIHandler())
		defer srv.Close()
		post(t, srv.URL, `{"template":{"n":1},`+axes+`}`)
		post(t, srv.URL, `{`+axes+`}`)
		post(t, srv.URL, `not json`)
		if got := hits(); got["r01"] != 1 || got["r02"] != 1 || got["r03"] != 1 {
			t.Fatalf("campaigns landed on %v, want one per replica", got)
		}
	})
}

// TestUploadKeepsContentLengthOnSecondHop checks that a streamed body with a
// declared length reaches the replica with that length instead of being
// re-framed as chunked, and that an undeclared length still streams.
func TestUploadKeepsContentLengthOnSecondHop(t *testing.T) {
	g := localityGateway()
	type framing struct {
		length  int64
		chunked bool
	}
	got := make(chan framing, 2)
	stubReplicas(t, g, func(_ string, r *http.Request) {
		got <- framing{r.ContentLength, len(r.TransferEncoding) > 0}
	})
	srv := httptest.NewServer(g.APIHandler())
	defer srv.Close()

	payload := strings.Repeat("x", 64<<10)
	// strings.Reader lets the client declare Content-Length.
	resp, err := http.Post(srv.URL+"/files", "application/octet-stream", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f := <-got; f.length != int64(len(payload)) || f.chunked {
		t.Fatalf("upload reached the replica as %+v, want Content-Length %d and no chunking", f, len(payload))
	}
	// An opaque reader makes the client send chunked; so does the gateway.
	resp, err = http.Post(srv.URL+"/files", "application/octet-stream", io.MultiReader(strings.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f := <-got; f.length != -1 || !f.chunked {
		t.Fatalf("chunked upload reached the replica as %+v, want it to stay chunked", f)
	}
}

func TestCopyHeadersStripsHopByHop(t *testing.T) {
	src := http.Header{
		"Connection":          {"keep-alive"},
		"Keep-Alive":          {"timeout=5"},
		"Transfer-Encoding":   {"chunked"},
		"Upgrade":             {"h2c"},
		"Te":                  {"trailers"},
		"Trailer":             {"X-Sum"},
		"Proxy-Authorization": {"Basic x"},
		"Proxy-Authenticate":  {"Basic"},
		"transfer-encoding":   {"gzip"}, // set past net/http, not canonical
		"Content-Type":        {"application/json"},
		"X-Request-Id":        {"abc"},
		"Accept":              {"a", "b"},
	}
	dst := http.Header{}
	copyHeaders(dst, src)
	if len(dst) != 3 || dst.Get("Content-Type") != "application/json" ||
		dst.Get("X-Request-Id") != "abc" || len(dst["Accept"]) != 2 {
		t.Fatalf("copied headers = %v, want exactly the three end-to-end ones", dst)
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
