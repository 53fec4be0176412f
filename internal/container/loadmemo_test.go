package container_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
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

// TestLoadReportCountsWaitingSweepChildren checks that the load report and
// the queue-depth gauge count every record waiting for a worker, sweep
// children included, not only what fits under the admission bound: the
// gateway's placement reads this depth.  Cancelling the sweep takes its
// children out at once, so a standalone job is admitted again while the
// only worker is still busy.
func TestLoadReportCountsWaitingSweepChildren(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	// The adapter ignores cancellation: the worker stays busy until release.
	adapter.RegisterFunc("loadtest.block", func(context.Context, core.Values) (core.Values, error) {
		started <- struct{}{}
		<-release
		return core.Values{"y": 1.0}, nil
	})
	c := newMemoContainer(t, container.Options{Workers: 1, QueueSize: 4})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // before Close, which waits for the worker
	deployNative(t, c, "blocker", "loadtest.block", false,
		[]core.Param{{Name: "x"}}, []core.Param{{Name: "y"}})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	before := scrapeMetrics(t, srv.URL)
	depth := func(want int) {
		t.Helper()
		if got := c.Jobs().LoadReport().QueueDepth; got != want {
			t.Errorf("QueueDepth = %d, want %d", got, want)
		}
		after := scrapeMetrics(t, srv.URL)
		if d := after["mc_job_queue_depth"] - before["mc_job_queue_depth"]; d != float64(want) {
			t.Errorf("mc_job_queue_depth grew by %v, want %d", d, want)
		}
	}

	const width = 16
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i)
	}
	ctx := context.Background()
	sw, err := c.Jobs().SubmitSweep(ctx, "blocker", &core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one worker holds the first child; the rest wait
	depth(width - 1)

	if _, err := c.Jobs().DeleteSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
	depth(0)
	job, err := c.Jobs().Submit(ctx, "blocker", core.Values{"x": -1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit after the sweep was cancelled: %v", err)
	}
	unblock()
	if done := waitDone(t, c, job.ID); done.State != core.StateDone {
		t.Fatalf("standalone job %s, want DONE", done.State)
	}
	if done := waitSweepDone(t, c, sw.ID); done.Counts.Cancelled != width-1 {
		t.Fatalf("sweep counts %+v, want %d CANCELLED", done.Counts, width-1)
	}
}

// TestLoadEndpointReportsQueueAndMemo exercises GET /load: the report that
// feeds the gateway's power-of-two-choices placement and admission control.
func TestLoadEndpointReportsQueueAndMemo(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 3, ReplicaID: "r07"})
	deployCounting(t, c, "loadsvc", true, &calls)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	job, err := c.Jobs().Submit(context.Background(), "loadsvc", core.Values{"x": 4.0}, container.SubmitOptions{})
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
	job, err := c.Jobs().Submit(context.Background(), "ssum", core.Values{"a": 1.0, "b": 2.0}, container.SubmitOptions{})
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
