package gateway_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/gateway"
	"mathcloud/internal/rest"
)

// openSSE GETs a stream, failing the test unless it answers 200.  lastID
// > 0 resumes with Last-Event-ID.  The caller closes the body.
func openSSE(t *testing.T, url string, lastID uint64) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/event-stream")
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}

// TestSSEHeadersMatchReplica: a watcher must not be able to tell from the
// response headers whether it streams a job from its replica or through
// mcgw — both tiers serve streams with one handler.
func TestSSEHeadersMatchReplica(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1)
	_, job := postJSON(t, gw.URL+"/services/add?wait=10s", core.Values{"a": 1, "b": 2})
	path := "/services/add/jobs/" + job["id"].(string) + "/events"

	direct := openSSE(t, r1.srv.URL+path, 0)
	direct.Body.Close()
	proxied := openSSE(t, gw.URL+path, 0)
	proxied.Body.Close()
	for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering", rest.WaitMaxHeader} {
		if d, p := direct.Header.Get(h), proxied.Header.Get(h); d == "" || d != p {
			t.Errorf("%s: replica %q, gateway %q", h, d, p)
		}
	}
}

// TestSSEFeedMethodCheckedFirst: a non-GET on a service feed is 405
// whether or not any replica can serve the feed.
func TestSSEFeedMethodCheckedFirst(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1)
	for _, svc := range []string{"add", "nosuch"} {
		resp, err := http.Post(gw.URL+"/services/"+svc+"/events", "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s feed: %v", svc, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s feed: status %d, want 405", svc, resp.StatusCode)
		}
	}
}

// TestSSEOversizeFrameKeepsReplicaHealthy: a replica stream frame larger
// than the scanner's cap is not a connection fault.  The pump must end the
// watchers once, not mark the healthy replica down and reconnect into the
// same frame.
func TestSSEOversizeFrameKeepsReplicaHealthy(t *testing.T) {
	release := make(chan struct{})
	adapter.RegisterFunc("gwtest.block", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Values{"sum": 0}, nil
	})
	r1 := startReplica(t, "r01", numService(t, "block", "gwtest.block", false))
	t.Cleanup(func() { close(release) })

	// The replica answers every job stream with one frame just over the cap,
	// streamed so the test never holds it whole.
	var streams atomic.Int64
	inner := r1.c.Handler()
	chunk := strings.Repeat("x", 1<<20)
	r1.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/jobs/") || !strings.HasSuffix(r.URL.Path, "/events") {
			inner.ServeHTTP(w, r)
			return
		}
		streams.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: job\ndata: ")
		for n := 0; n <= rest.MaxBodyBytes; n += len(chunk) {
			io.WriteString(w, chunk)
		}
		io.WriteString(w, "\n\n")
	}))
	t.Cleanup(r1.srv.Close)
	_, gw := startGateway(t, gateway.Options{MaxWaitWindow: 3 * time.Second}, r1)

	_, job := postJSON(t, gw.URL+"/services/block", core.Values{"a": 1})
	metric := `mc_gateway_proxy_errors_total{replica="r01"}`
	before := metricValue(t, gw.URL, metric)

	resp := openSSE(t, gw.URL+"/services/block/jobs/"+job["id"].(string)+"/events", 0)
	defer resp.Body.Close()
	sc := events.NewScanner(resp.Body)
	for {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("stream: %v before the End frame", err)
		}
		if ev.End {
			break
		}
	}
	if after := metricValue(t, gw.URL, metric); after != before {
		t.Fatalf("proxy errors for r01 %v -> %v: the oversize frame marked the replica down", before, after)
	}
	if n := streams.Load(); n != 1 {
		t.Fatalf("pump opened %d upstream streams, want 1", n)
	}
	_, reps := getJSON(t, gw.URL+"/replicas")
	if m := reps["replicas"].([]any)[0].(map[string]any); m["healthy"] != true {
		t.Fatalf("replica after oversize frame: %v", m)
	}
}

// TestGatewayCloseEndsLiveStreams: Close must not wait out the idle
// window of a watcher whose pump is still running; it cancels the pumps
// and the closing bus ends the downstream stream.
func TestGatewayCloseEndsLiveStreams(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	g, gw := startGateway(t, gateway.Options{}, r1)
	resp := openSSE(t, gw.URL+"/services/add/events", 0)
	defer resp.Body.Close()
	sc := events.NewScanner(resp.Body)
	if _, err := sc.Next(); err != nil {
		t.Fatalf("hello: %v", err)
	}

	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Gateway.Close blocked behind a live stream")
	}
	for {
		if _, err := sc.Next(); err != nil {
			if err != io.EOF {
				t.Fatalf("stream after Close: %v, want io.EOF", err)
			}
			break
		}
	}
}

// TestSSEIdleCloseAndResumeThroughGateway covers the gateway's own ID
// space: a watcher that reconnects with the last ID it saw gets the
// service-feed frames it missed replayed from the gateway's bus ring, and
// a stream with no traffic ends cleanly after the idle window.
func TestSSEIdleCloseAndResumeThroughGateway(t *testing.T) {
	const idle = 2 * time.Second
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{MaxWaitWindow: idle}, r1)
	feed := gw.URL + "/services/add/events"

	// The keeper holds the upstream pump open for the whole test.  Its
	// second frame is the replica's hello relayed by the pump, so the
	// topic has published before the next watcher attaches.
	keeper := openSSE(t, feed, 0)
	defer keeper.Body.Close()
	if got := keeper.Header.Get(rest.WaitMaxHeader); got != idle.String() {
		t.Fatalf("Wait-Max = %q, want %s", got, idle)
	}
	ks := events.NewScanner(keeper.Body)
	for i := 0; i < 2; i++ {
		if _, err := ks.Next(); err != nil {
			t.Fatalf("keeper frame %d: %v", i, err)
		}
	}

	// A watcher sees its hello, then leaves.
	w := openSSE(t, feed, 0)
	hello, err := events.NewScanner(w.Body).Next()
	w.Body.Close()
	if err != nil || hello.ID == 0 {
		t.Fatalf("watcher hello = %+v, %v; want a resumable ID", hello, err)
	}

	// While it is away a job runs; the keeper proves the feed carried it.
	_, job := postJSON(t, gw.URL+"/services/add?wait=10s", core.Values{"a": 1, "b": 2})
	jobID := job["id"].(string)
	isDone := func(ev events.Event) bool {
		var j core.Job
		return ev.Type == events.TypeJob && json.Unmarshal(ev.Data, &j) == nil &&
			j.ID == jobID && j.State == core.StateDone
	}
	for {
		ev, err := ks.Next()
		if err != nil {
			t.Fatalf("keeper: %v before the job's DONE frame", err)
		}
		if isDone(ev) {
			break
		}
	}

	// Resuming replays the gap: frames numbered after the watcher's last ID
	// and no later than the new subscription, ending with the job's DONE.
	w2 := openSSE(t, feed, hello.ID)
	defer w2.Body.Close()
	sc := events.NewScanner(w2.Body)
	open, err := sc.Next()
	if err != nil {
		t.Fatalf("resumed hello: %v", err)
	}
	for {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("resumed stream: %v before the replayed DONE frame", err)
		}
		if ev.ID <= hello.ID || ev.ID > open.ID {
			t.Fatalf("frame %d is outside the replayed gap (%d, %d]", ev.ID, hello.ID, open.ID)
		}
		if isDone(ev) {
			break
		}
	}

	// Nothing else happens, so the keeper's stream ends at the idle window
	// with a clean EOF.  The replica may still deliver a transition it
	// snapshotted before DONE, so frames can precede the close.
	start := time.Now()
	for {
		_, err := ks.Next()
		if err == nil {
			continue
		}
		if err != io.EOF {
			t.Fatalf("idle keeper: %v, want io.EOF", err)
		}
		break
	}
	if waited := time.Since(start); waited > idle+5*time.Second {
		t.Fatalf("idle close took %v with a %v window", waited, idle)
	}
}
