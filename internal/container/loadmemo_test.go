package container_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/journal"
)

func getFederationJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestLoadEndpointReportsQueueAndMemo exercises GET /load: the report that
// feeds the gateway's power-of-two-choices placement and admission control.
func TestLoadEndpointReportsQueueAndMemo(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 3, ReplicaID: "r07"})
	deployCounting(t, c, "loadsvc", true, &calls)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	job, err := c.Jobs().Submit("loadsvc", core.Values{"x": 4.0}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, job.ID)

	var report core.LoadReport
	if code := getFederationJSON(t, srv.URL+"/load", &report); code != http.StatusOK {
		t.Fatalf("GET /load = %d", code)
	}
	if report.Replica != "r07" {
		t.Fatalf("replica = %q, want r07", report.Replica)
	}
	if report.Workers != 3 {
		t.Fatalf("workers = %d, want 3", report.Workers)
	}
	if report.QueueCap <= 0 {
		t.Fatalf("queueCap = %d, want > 0", report.QueueCap)
	}
	if report.QueueDepth < 0 || report.QueueDepth > report.QueueCap {
		t.Fatalf("queueDepth = %d out of [0, %d]", report.QueueDepth, report.QueueCap)
	}
	if report.MemoEntries != 1 {
		t.Fatalf("memoEntries = %d, want 1 (the finished deterministic job)", report.MemoEntries)
	}
}

// TestSnapshotBytesTriggersCheckpoint pins the size trigger: with
// SnapshotBytes set to one byte, the first journaled mutation pushes the
// live WAL over the threshold and the snapshotter checkpoints without
// waiting for the periodic interval.
func TestSnapshotBytesTriggersCheckpoint(t *testing.T) {
	registerSum("sizetrig.sum")
	dir := t.TempDir()
	opts := durableOpts(dir, journal.SyncAlways)
	opts.SnapshotInterval = -1 // periodic trigger off: only size can fire
	opts.SnapshotBytes = 1
	c, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deployNative(t, c, "ssum", "sizetrig.sum", true, sumParams.in, sumParams.out)
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	job, err := c.Jobs().Submit("ssum", core.Values{"a": 1.0, "b": 2.0}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, job.ID)

	// The snapshotter polls at 1s cadence when a size bound is set.
	journalDir := filepath.Join(dir, "journal")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".snap") {
				return // checkpoint written by the size trigger
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("no snapshot appeared within 10s despite SnapshotBytes=1")
}
