package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/gateway"
	"mathcloud/internal/jsonschema"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// numService builds a one-in/one-out native service config.
func numService(t testing.TB, name, fn string, deterministic bool) container.ServiceConfig {
	t.Helper()
	num := jsonschema.New(jsonschema.TypeNumber)
	return container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:          name,
			Title:         name,
			Description:   "gateway test service " + name,
			Inputs:        []core.Param{{Name: "a", Schema: num}, {Name: "b", Optional: true, Schema: num}},
			Outputs:       []core.Param{{Name: "sum", Schema: num}},
			Deterministic: deterministic,
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: fn}),
		},
	}
}

type replica struct {
	name string
	c    *container.Container
	srv  *httptest.Server
}

// startReplica runs one container replica behind its own listener.
func startReplica(t testing.TB, name string, svcs ...container.ServiceConfig) *replica {
	t.Helper()
	c, err := container.New(container.Options{
		Workers:   4,
		ReplicaID: name,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("New container %s: %v", name, err)
	}
	t.Cleanup(c.Close)
	for _, cfg := range svcs {
		if err := c.Deploy(cfg); err != nil {
			t.Fatalf("Deploy %s on %s: %v", cfg.Description.Name, name, err)
		}
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return &replica{name: name, c: c, srv: srv}
}

// startGateway runs a gateway over the replicas and points every replica's
// base URL back at it, per the deployment contract: minted absolute URIs
// must route through the gateway.
func startGateway(t testing.TB, opts gateway.Options, reps ...*replica) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	for _, r := range reps {
		opts.Replicas = append(opts.Replicas, gateway.Replica{Name: r.name, BaseURL: r.srv.URL})
	}
	if opts.PingInterval == 0 {
		opts.PingInterval = -1 // tests drive RefreshHealth explicitly
	}
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	g, err := gateway.New(opts)
	if err != nil {
		t.Fatalf("New gateway: %v", err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	for _, r := range reps {
		r.c.SetBaseURL(srv.URL)
	}
	return g, srv
}

func addFunc() adapter.Func {
	return func(ctx context.Context, in core.Values) (core.Values, error) {
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	}
}

// postJSON posts v and returns the response with its decoded body.
func postJSON(t *testing.T, url string, v any) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(t, v)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp, body
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp, body
}

// metricValue scrapes one plain (unlabelled) metric from /metrics.
func metricValue(t *testing.T, gwURL, name string) float64 {
	t.Helper()
	v, err := scrapeMetric(gwURL, name)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	return v
}

// scrapeMetric is metricValue for goroutines that cannot fail the test; an
// absent metric reads as 0.
func scrapeMetric(baseURL, name string) (float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err == nil {
				return v, nil
			}
		}
	}
	return 0, nil
}

func TestSubmitSpreadAndAffinityRouting(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)

	used := make(map[string]int)
	for i := 0; i < 4; i++ {
		resp, job := postJSON(t, gw.URL+"/services/add?wait=15s", core.Values{"a": float64(i), "b": 1})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d (%v)", i, resp.StatusCode, job)
		}
		if job["state"] != "DONE" {
			t.Fatalf("submit %d: state %v", i, job["state"])
		}
		rep := resp.Header.Get(container.ReplicaHeader)
		used[rep]++
		id, _ := job["id"].(string)
		prefix, ok := core.SplitReplicaID(id)
		if !ok || prefix != rep {
			t.Fatalf("job ID %q prefix %q does not match serving replica %q", id, prefix, rep)
		}
		// Affinity read: the ID alone must route back to the home replica.
		gresp, got := getJSON(t, gw.URL+"/services/add/jobs/"+id)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, gresp.StatusCode)
		}
		if h := gresp.Header.Get(container.ReplicaHeader); h != rep {
			t.Fatalf("GET job %s answered by %q, submitted on %q", id, h, rep)
		}
		sum := got["outputs"].(map[string]any)["sum"].(float64)
		if sum != float64(i)+1 {
			t.Fatalf("job %s: sum %v, want %v", id, sum, float64(i)+1)
		}
	}
	if len(used) != 2 {
		t.Fatalf("submissions did not spread: replica use %v", used)
	}
}

// TestDigestHomeRoutesResubmissionToSameReplica resubmits deterministic
// jobs through a gateway whose memo index is never refreshed, so only the
// digest home can send each resubmission back to the replica holding its
// result.
func TestDigestHomeRoutesResubmissionToSameReplica(t *testing.T) {
	var calls1, calls2 atomic.Int64
	adapter.RegisterFunc("gwtest.det1", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls1.Add(1)
		a, _ := in["a"].(float64)
		return core.Values{"sum": a * 2}, nil
	})
	adapter.RegisterFunc("gwtest.det2", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls2.Add(1)
		a, _ := in["a"].(float64)
		return core.Values{"sum": a * 2}, nil
	})
	r1 := startReplica(t, "r01", numService(t, "det", "gwtest.det1", true))
	r2 := startReplica(t, "r02", numService(t, "det", "gwtest.det2", true))
	_, gw := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)

	indexBefore := metricValue(t, gw.URL, "mc_gateway_memo_index_hits_total")
	const distinct = 6
	homes := make(map[string]bool)
	for i := 0; i < distinct; i++ {
		var first string
		for round := 0; round < 2; round++ {
			resp, job := postJSON(t, gw.URL+"/services/det?wait=15s", core.Values{"a": i})
			if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
				t.Fatalf("a=%d round %d: status %d state %v", i, round, resp.StatusCode, job["state"])
			}
			got := resp.Header.Get(container.ReplicaHeader)
			if round == 0 {
				first = got
			} else if got != first {
				t.Fatalf("a=%d: resubmission routed to %q, first ran on %q", i, got, first)
			}
		}
		homes[first] = true
	}
	if n := calls1.Load() + calls2.Load(); n != distinct {
		t.Fatalf("adapter ran %d times for %d distinct inputs, want every resubmission to hit the cache", n, distinct)
	}
	if after := metricValue(t, gw.URL, "mc_gateway_memo_index_hits_total"); after != indexBefore {
		t.Fatalf("memo index hits %v -> %v: the index was never refreshed, the home alone must route", indexBefore, after)
	}
	if len(homes) != 2 {
		t.Fatalf("homes of %d digests = %v, want both replicas to be home to some", distinct, homes)
	}
}

func TestMergedIndexSearchAndReplicasView(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02",
		numService(t, "add", "gwtest.add", false),
		numService(t, "extra", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)

	resp, index := getJSON(t, gw.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Warning") != "" {
		t.Fatalf("unexpected Warning on full merge: %q", resp.Header.Get("Warning"))
	}
	services := index["services"].([]any)
	names := make(map[string]int)
	for _, s := range services {
		names[s.(map[string]any)["name"].(string)]++
	}
	if names["add"] != 1 || names["extra"] != 1 {
		t.Fatalf("merged services %v, want add and extra once each", names)
	}
	if reps := index["replicas"].([]any); len(reps) != 2 {
		t.Fatalf("replicas in index: %d, want 2", len(reps))
	}

	sresp, search := getJSON(t, gw.URL+"/search?q=extra")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /search: status %d", sresp.StatusCode)
	}
	if total := search["total"].(float64); total < 1 {
		t.Fatalf("search for deployed service found %v results", total)
	}

	rresp, reps := getJSON(t, gw.URL+"/replicas")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /replicas: status %d", rresp.StatusCode)
	}
	for _, r := range reps["replicas"].([]any) {
		m := r.(map[string]any)
		if m["healthy"] != true {
			t.Fatalf("replica %v not healthy: %v", m["name"], m)
		}
	}
}

func TestFileRoundTripThroughGateway(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)

	payload := []byte("federated file bytes")
	resp, err := http.Post(gw.URL+"/files", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var up map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("upload decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	home := resp.Header.Get(container.ReplicaHeader)
	prefix, ok := core.SplitReplicaID(up["id"])
	if !ok || prefix != home {
		t.Fatalf("file ID %q prefix %q does not match uploading replica %q", up["id"], prefix, home)
	}

	// The affinity prefix alone routes the read back to the bytes.
	dresp, err := http.Get(gw.URL + "/files/" + up["id"])
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	data, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !bytes.Equal(data, payload) {
		t.Fatalf("download: status %d, %d bytes", dresp.StatusCode, len(data))
	}

	req, _ := http.NewRequest(http.MethodDelete, gw.URL+"/files/"+up["id"], nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
}

func TestSweepThroughGatewayKeepsCampaignOnOneReplica(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)

	spec := core.SweepSpec{
		Template: core.Values{"b": 10},
		Axes:     map[string][]any{"a": {1, 2, 3, 4}},
	}
	resp, sweep := postJSON(t, gw.URL+"/services/add/sweeps?wait=15s", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep submit: status %d (%v)", resp.StatusCode, sweep)
	}
	if sweep["state"] != "DONE" {
		t.Fatalf("sweep state %v", sweep["state"])
	}
	sweepID := sweep["id"].(string)
	home, ok := core.SplitReplicaID(sweepID)
	if !ok {
		t.Fatalf("sweep ID %q carries no replica prefix", sweepID)
	}

	// The whole campaign lives on the sweep's home replica: child IDs carry
	// the same prefix and one affinity hop serves the child listing.
	jresp, page := getJSON(t, gw.URL+"/services/add/sweeps/"+sweepID+"/jobs")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("sweep jobs: status %d", jresp.StatusCode)
	}
	jobs := page["jobs"].([]any)
	if len(jobs) != 4 {
		t.Fatalf("sweep children: %d, want 4", len(jobs))
	}
	for _, j := range jobs {
		id := j.(map[string]any)["id"].(string)
		if p, _ := core.SplitReplicaID(id); p != home {
			t.Fatalf("child %q prefix %q, sweep home %q", id, p, home)
		}
	}
}

// sseFrames reads SSE frames from a stream URL until an End frame, an
// error, or the deadline, sending each frame to out.
func sseWatch(t *testing.T, url string, out chan<- events.Event) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		close(out)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d", url, resp.StatusCode)
		close(out)
		return
	}
	sc := events.NewScanner(resp.Body)
	for {
		ev, err := sc.Next()
		if err != nil {
			close(out)
			return
		}
		out <- ev
		if ev.End {
			close(out)
			return
		}
	}
}

func TestSSEThroughGatewaySharedUpstream(t *testing.T) {
	gate := make(chan struct{})
	adapter.RegisterFunc("gwtest.gated", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-gate:
			return core.Values{"sum": 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	r1 := startReplica(t, "r01", numService(t, "gated", "gwtest.gated", false))
	_, gw := startGateway(t, gateway.Options{}, r1)

	resp, job := postJSON(t, gw.URL+"/services/gated", core.Values{"a": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	jobID := job["id"].(string)
	streamURL := gw.URL + "/services/gated/jobs/" + jobID + "/events"

	before := metricValue(t, gw.URL, "mc_gateway_sse_upstreams")
	ch1 := make(chan events.Event, 16)
	ch2 := make(chan events.Event, 16)
	go sseWatch(t, streamURL, ch1)
	go sseWatch(t, streamURL, ch2)

	// Both watchers get an opening snapshot first.
	for i, ch := range []chan events.Event{ch1, ch2} {
		select {
		case ev := <-ch:
			if ev.Type != events.TypeJob {
				t.Fatalf("watcher %d: opening frame type %q", i, ev.Type)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher %d: no opening frame", i)
		}
	}
	// Two downstream watchers share one upstream connection.
	if ups := metricValue(t, gw.URL, "mc_gateway_sse_upstreams"); ups != before+1 {
		t.Fatalf("mc_gateway_sse_upstreams = %v, want %v (one shared upstream)", ups, before+1)
	}

	close(gate)
	for i, ch := range []chan events.Event{ch1, ch2} {
		deadline := time.After(10 * time.Second)
		done := false
		for !done {
			select {
			case ev, ok := <-ch:
				if !ok {
					t.Fatalf("watcher %d: stream closed before terminal frame", i)
				}
				if ev.End {
					var j core.Job
					if err := json.Unmarshal(ev.Data, &j); err != nil {
						t.Fatalf("watcher %d: terminal frame: %v", i, err)
					}
					if j.State != core.StateDone {
						t.Fatalf("watcher %d: terminal state %s", i, j.State)
					}
					done = true
				}
			case <-deadline:
				t.Fatalf("watcher %d: no terminal frame", i)
			}
		}
	}
	// The pump self-removes after the terminal frame.
	waitFor(t, 5*time.Second, func() bool {
		return metricValue(t, gw.URL, "mc_gateway_sse_upstreams") == before
	}, "upstream pump did not shut down")
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}
