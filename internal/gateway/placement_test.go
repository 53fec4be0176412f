package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
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
		candCache: make(map[string]*candEntry),
	}
	for name, svcs := range services {
		rs := &replicaState{
			name:     name,
			healthy:  healthy[name],
			services: make(map[string]core.ServiceDescription),
			requests: resolveRequestCounters(name),
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
		seen[spreadReplica(&g.rrCursor, candidates).name]++
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

// submitBody is the JSON body a client POSTs to submit inputs.
func submitBody(t *testing.T, inputs core.Values) []byte {
	t.Helper()
	raw, err := json.Marshal(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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
				rs, _, err := g.routeSubmit("s", submitBody(t, tc.inputs))
				if err != nil || rs == nil {
					t.Fatalf("routeSubmit = %v err=%v", rs, err)
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

// rendezvousOrder ranks replica names by rendezvousScore(key, name), best
// first: the spill order of the key's digest home.
func rendezvousOrder(key string, names ...string) []string {
	out := append([]string(nil), names...)
	sort.Slice(out, func(i, j int) bool {
		return rendezvousScore(key, out[i]) > rendezvousScore(key, out[j])
	})
	return out
}

// TestRouteSubmitDigestHome pins where a deterministic submission without
// file inputs goes: its digest home, spilling down the rendezvous order past
// full queues, refused when every queue is full, and never spent on the
// spread cursor.  Input files still decide first.
func TestRouteSubmitDigestHome(t *testing.T) {
	all := []string{"r01", "r02", "r03"}
	hash := func(inputs core.Values) string {
		key, err := core.CanonicalHash("det", "1", inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	full := func(names ...string) func(*Gateway) {
		return func(g *Gateway) {
			for _, n := range names {
				g.byName[n].load = core.LoadReport{QueueDepth: 8, QueueCap: 8}
			}
		}
	}

	t.Run("independent gateways agree on every home", func(t *testing.T) {
		homes := make(map[string]int)
		for i := 0; i < 32; i++ {
			inputs := core.Values{"n": float64(i)}
			a, _, errA := localityGateway().routeSubmit("det", submitBody(t, inputs))
			b, _, errB := localityGateway().routeSubmit("det", submitBody(t, inputs))
			if errA != nil || errB != nil || a.name != b.name {
				t.Fatalf("inputs %v: gateways chose %v (%v) and %v (%v)", inputs, a, errA, b, errB)
			}
			if want := rendezvousOrder(hash(inputs), all...)[0]; a.name != want {
				t.Fatalf("inputs %v: home %s, want rendezvous winner %s", inputs, a.name, want)
			}
			homes[a.name]++
		}
		if len(homes) != len(all) {
			t.Fatalf("homes of 32 digests = %v, want every replica to be home to some", homes)
		}
	})

	inputs := core.Values{"n": 7.0}
	order := rendezvousOrder(hash(inputs), all...)
	// A file input whose owner is not the home of its own digest, so only
	// locality can place it there.
	var owner string
	var fileInputs core.Values
	for _, owner = range all {
		fileInputs = core.Values{"f": core.FileRef(fileID(owner, 1))}
		if rendezvousOrder(hash(fileInputs), all...)[0] != owner {
			break
		}
	}
	cases := []struct {
		name    string
		service string
		inputs  core.Values
		setup   func(g *Gateway)
		want    string // "" means refused with 503
		cursor  uint64 // spread cursor steps taken
	}{
		{name: "home is the rendezvous winner", service: "det", inputs: inputs, want: order[0]},
		{name: "full home spills to the next replica", service: "det", inputs: inputs,
			setup: full(order[0]), want: order[1]},
		{name: "two full spill to the third", service: "det", inputs: inputs,
			setup: full(order[0], order[1]), want: order[2]},
		{name: "unhealthy home spills like a full one", service: "det", inputs: inputs,
			setup: func(g *Gateway) { g.byName[order[0]].healthy = false }, want: order[1]},
		{name: "every queue full is refused", service: "det", inputs: inputs,
			setup: full(all...)},
		{name: "file-bearing submission follows its input", service: "det", inputs: fileInputs,
			want: owner},
		{name: "non-deterministic submission takes one spread step", service: "s", inputs: inputs,
			want: "*", cursor: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := localityGateway()
			if tc.setup != nil {
				tc.setup(g)
			}
			rs, _, err := g.routeSubmit(tc.service, submitBody(t, tc.inputs))
			switch {
			case tc.want == "":
				var unavail *core.UnavailableError
				if !errors.As(err, &unavail) || unavail.RetryAfter <= 0 {
					t.Fatalf("routeSubmit = %v, %v; want a 503 with Retry-After", rs, err)
				}
			case err != nil || rs == nil:
				t.Fatalf("routeSubmit = %v, %v", rs, err)
			case tc.want != "*" && rs.name != tc.want:
				t.Fatalf("placed on %s, want %s (rendezvous order %v)", rs.name, tc.want, order)
			}
			if n := g.rrCursor.Load(); n != tc.cursor {
				t.Fatalf("spread cursor = %d, want %d", n, tc.cursor)
			}
		})
	}
}

// TestUploadsSpreadOnTheirOwnCursor alternates uploads with file-less job
// submissions through a two-replica gateway.  The uploads must still split
// 1:1: on a cursor shared with job placement every upload would take the
// same parity and land on one replica.
func TestUploadsSpreadOnTheirOwnCursor(t *testing.T) {
	g := federationTestGateway(nil)
	var mu sync.Mutex
	uploads := make(map[string]int)
	stubReplicas(t, g, func(name string, r *http.Request) {
		if r.URL.Path == "/files" {
			mu.Lock()
			uploads[name]++
			mu.Unlock()
		}
	})
	srv := httptest.NewServer(g.APIHandler())
	defer srv.Close()
	for i := 0; i < 8; i++ {
		for _, path := range []string{"/files", "/services/s"} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"a": 1}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("POST %s = %d, want 201 from the stub replica", path, resp.StatusCode)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if uploads["r01"] != 4 || uploads["r02"] != 4 {
		t.Fatalf("uploads per replica = %v, want 4 and 4", uploads)
	}
}

// FuzzFileOwner checks fileOwner on arbitrary parameter values: it never
// panics, an owner it reports is a valid replica name, and a file ID names
// the same owner in its bare form and in its absolute-URI form.
func FuzzFileOwner(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string) {
		for _, v := range []string{id, core.FileRef(id)} {
			if owner, ok := fileOwner(v); ok && !core.ValidReplicaName(owner) {
				t.Fatalf("fileOwner(%q) = %q, not a valid replica name", v, owner)
			}
		}
		if strings.Contains(id, "/") {
			return // a file ID is a single path segment
		}
		bare, bareOK := fileOwner(core.FileRef(id))
		uri, uriOK := fileOwner(core.FileRef("http://gw.example:8190/files/" + id))
		if bare != uri || bareOK != uriOK {
			t.Fatalf("ID %q: bare form owned by (%q, %v), URI form by (%q, %v)", id, bare, bareOK, uri, uriOK)
		}
	})
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

// TestSubmitBodyForwardedUndecoded pins what the gateway does with a job
// submission it need not decode (a non-deterministic service, no file
// reference): the replica receives the body byte for byte, and a body that
// does not parse is the replica's to refuse, its 400 passed through as is.
func TestSubmitBodyForwardedUndecoded(t *testing.T) {
	g := localityGateway()
	const refusal = `{"error":"replica refuses","status":400}` + "\n"
	received := make(chan []byte, 1)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		received <- body
		if !json.Valid(body) {
			w.WriteHeader(http.StatusBadRequest)
			_, _ = io.WriteString(w, refusal)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = io.WriteString(w, "{}")
	}))
	defer replica.Close()
	for _, rs := range g.replicas {
		rs.base = replica.URL
	}
	g.client = &http.Client{}
	srv := httptest.NewServer(g.APIHandler())
	defer srv.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		reply      string
	}{
		{"file-free inputs", "{ \"n\" : 1.50,\n\t\"label\": \"r01-draft\" }", http.StatusCreated, "{}"},
		{"unparsable body", `{"n": `, http.StatusBadRequest, refusal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/services/s", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if got := <-received; !bytes.Equal(got, []byte(tc.body)) {
				t.Fatalf("replica received %q, want the client's %q", got, tc.body)
			}
			if resp.StatusCode != tc.status || string(reply) != tc.reply {
				t.Fatalf("client got %d %q, want %d %q", resp.StatusCode, reply, tc.status, tc.reply)
			}
		})
	}
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
