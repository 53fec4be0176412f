package main

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmokeTable1Small builds the real everest, runs table1_small against
// it for one second and checks that the run is correct, that the layers the
// workload bypasses stayed idle, and that nothing is left behind.
func TestSmokeTable1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real server processes")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	res, err := h.runWorkload(context.Background(), findWorkload("table1_small"), 1, 200*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.Jobs == 0 {
		t.Fatalf("run incorrect: %d jobs, %d failed, problems %v", res.Jobs, res.Failed, res.Problems)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, v.Value)
		}
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "trace.") {
			continue // from the traced run, not from a workload
		}
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s is not reported", m.Name)
		}
	}
	if got := res.value("client.requests_per_job"); got != 2 {
		t.Errorf("client.requests_per_job = %v, want exactly 2 (POST, DELETE)", got)
	}
	for _, name := range []string{"journal.appends_per_job", "container.memo_hit_share", "container.http_file_ms", "gateway.requests_per_job"} {
		if got := res.value(name); got != 0 {
			t.Errorf("%s = %v on a workload that bypasses the layer, want 0", name, got)
		}
	}
	h.cleanup()
	if _, err := os.Stat(h.runDir); !os.IsNotExist(err) {
		t.Errorf("run directory %s survived clean-up", h.runDir)
	}
	if len(h.children) != 0 {
		t.Errorf("%d child processes still tracked after clean-up", len(h.children))
	}
}

// A server that dies before it is ready must fail the run with the tail of
// its log, not hang it, and leave nothing behind.
func TestReadinessFailureShowsLogTail(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real server processes")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	h.config = "/nonexistent/services.json"
	_, err = h.deploy(context.Background(), direct)
	if err == nil {
		t.Fatal("deploy succeeded with an unreadable config")
	}
	if !strings.Contains(err.Error(), "exited before it was ready") || !strings.Contains(err.Error(), "read config") {
		t.Errorf("error does not carry the child's log tail: %v", err)
	}
	if len(h.children) != 0 {
		t.Errorf("%d child processes still tracked after a failed deploy", len(h.children))
	}
}
