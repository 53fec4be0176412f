package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/gateway"
)

// TestDeadReplicaFailsFastAndFailsOver covers the first failure mode of the
// federation: a replica dies while clients still hold IDs homed on it.
// Affinity requests must fail fast with 502 Bad Gateway (the retryable
// routing-tier signal), not hang, and new work must stop landing on the
// dead replica immediately (passive health).
func TestDeadReplicaFailsFastAndFailsOver(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)

	r2.srv.Close()

	deadID := "r02-" + strings.Repeat("0", 32)
	for _, path := range []string{
		"/services/add/jobs/" + deadID,
		"/services/add/sweeps/" + deadID,
	} {
		start := time.Now()
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("GET %s took %v, want a fast failure", path, elapsed)
		}
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("GET %s: status %d, want 502", path, resp.StatusCode)
		}
	}

	// The failed proxy marked r02 down: everything now lands on r01.
	for i := 0; i < 3; i++ {
		resp, job := postJSON(t, gw.URL+"/services/add?wait=15s", core.Values{"a": float64(i)})
		if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
			t.Fatalf("failover submit %d: status %d state %v", i, resp.StatusCode, job["state"])
		}
		if rep := resp.Header.Get(core.ReplicaHeader); rep != "r01" {
			t.Fatalf("failover submit %d landed on %q", i, rep)
		}
	}
}

// TestScatterGatherPartialResultWithWarning covers the second failure mode:
// one replica hangs past the per-replica deadline during a scatter-gather.
// The merged response must come back inside the deadline with the live
// replicas' data and a Warning header naming the missing one.
func TestScatterGatherPartialResultWithWarning(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(30 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hang.CloseClientConnections)
	t.Cleanup(hang.Close)

	opts := gateway.Options{
		FanoutTimeout: 300 * time.Millisecond,
		Replicas:      []gateway.Replica{{Name: "r02", BaseURL: hang.URL}},
	}
	_, gw := startGateway(t, opts, r1)

	start := time.Now()
	resp, index := getJSON(t, gw.URL+"/")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("merged index took %v, want bounded by the per-replica deadline", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /: status %d, want 200 partial result", resp.StatusCode)
	}
	warning := resp.Header.Get("Warning")
	if !strings.Contains(warning, "r02") {
		t.Fatalf("Warning header %q does not name the unreachable replica", warning)
	}
	services := index["services"].([]any)
	if len(services) != 1 || services[0].(map[string]any)["name"] != "add" {
		t.Fatalf("partial merge lost the live replica's services: %v", services)
	}
	if v := metricValue(t, gw.URL, "mc_gateway_fanout_partial_total"); v < 1 {
		t.Fatalf("mc_gateway_fanout_partial_total = %v, want >= 1", v)
	}
}

// TestSSEReconnectReResolvesMovedReplica covers the third failure mode: a
// replica moves to a new address mid-stream (container rescheduled).  The
// gateway's upstream pump must re-resolve the replica through
// Options.Resolver, reconnect with its upstream Last-Event-ID, and deliver
// the terminal transition to downstream watchers as if nothing happened.
func TestSSEReconnectReResolvesMovedReplica(t *testing.T) {
	gate := make(chan struct{})
	adapter.RegisterFunc("gwtest.moved", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-gate:
			return core.Values{"sum": 7}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	r1 := startReplica(t, "r01", numService(t, "moved", "gwtest.moved", false))

	var currentBase atomic.Value
	currentBase.Store(r1.srv.URL)
	opts := gateway.Options{
		Resolver: func(name string) (string, bool) {
			return currentBase.Load().(string), true
		},
	}
	_, gw := startGateway(t, opts, r1)

	resp, job := postJSON(t, gw.URL+"/services/moved", core.Values{"a": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	jobID := job["id"].(string)

	ch := make(chan events.Event, 16)
	go sseWatch(t, gw.URL+"/services/moved/jobs/"+jobID+"/events", ch)
	select {
	case ev := <-ch:
		if ev.Type != events.TypeJob {
			t.Fatalf("opening frame type %q", ev.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no opening frame")
	}

	// Move the replica: same container, new listener.  The old address goes
	// dark with connections cut, as a rescheduled container would.
	moved := httptest.NewServer(r1.c.Handler())
	t.Cleanup(moved.Close)
	currentBase.Store(moved.URL)
	r1.srv.CloseClientConnections()
	r1.srv.Close()

	// Give the pump a moment to lose the connection, then finish the job on
	// the moved replica.
	time.Sleep(200 * time.Millisecond)
	close(gate)

	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream closed before terminal frame")
			}
			if ev.End {
				var j core.Job
				if err := json.Unmarshal(ev.Data, &j); err != nil {
					t.Fatalf("terminal frame: %v", err)
				}
				if j.State != core.StateDone {
					t.Fatalf("terminal state %s", j.State)
				}
				return
			}
		case <-deadline:
			t.Fatal("no terminal frame after replica move")
		}
	}
}
