package container_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// durableOpts roots a container's file store and write-ahead journal under
// dir, the way `everest -data-dir` does.
func durableOpts(dir string, mode journal.SyncMode) container.Options {
	return container.Options{
		Workers:    4,
		DataDir:    filepath.Join(dir, "files"),
		JournalDir: filepath.Join(dir, "journal"),
		WALSync:    mode,
		Logger:     quietLogger(),
	}
}

// deployNative deploys one native-function service on the container.
func deployNative(t *testing.T, c *container.Container, name, fn string, deterministic bool, inputs, outputs []core.Param) {
	t.Helper()
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:          name,
			Deterministic: deterministic,
			Inputs:        inputs,
			Outputs:       outputs,
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: fn}),
		},
	}); err != nil {
		t.Fatalf("Deploy %s: %v", name, err)
	}
}

var sumParams = struct{ in, out []core.Param }{
	in:  []core.Param{{Name: "a"}, {Name: "b"}},
	out: []core.Param{{Name: "sum"}},
}

func registerSum(name string) {
	adapter.RegisterFunc(name, func(_ context.Context, in core.Values) (core.Values, error) {
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
}

// TestRecoverTerminalJobAndMemo restarts a journaled container and checks
// that a finished job is restored verbatim and that the memo entry backing
// it still answers repeat submissions without recomputation.
func TestRecoverTerminalJobAndMemo(t *testing.T) {
	registerSum("rectest.sum")
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	deployNative(t, c1, "rsum", "rectest.sum", true, sumParams.in, sumParams.out)
	c1.SetBaseURL("http://recovery.test")
	job, err := c1.Jobs().Submit(ctx, "rsum", core.Values{"a": 2.0, "b": 40.0}, container.SubmitOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c1.Jobs().Wait(ctx, job.ID, 10*time.Second)
	if err != nil || done.State != core.StateDone {
		t.Fatalf("first run: state=%v err=%v", done, err)
	}
	c1.Close()

	c2, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "rsum", "rectest.sum", true, sumParams.in, sumParams.out)
	if err := c2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	got, err := c2.Jobs().Get(job.ID)
	if err != nil {
		t.Fatalf("job not restored: %v", err)
	}
	if got.State != core.StateDone || got.Outputs["sum"] != 42.0 {
		t.Fatalf("restored job = state %s outputs %v, want DONE sum=42", got.State, got.Outputs)
	}
	if got.Owner != "alice" {
		t.Errorf("restored owner = %q", got.Owner)
	}
	if !got.Finished.Equal(done.Finished) {
		t.Errorf("restored finished %v != %v", got.Finished, done.Finished)
	}

	// The memo table came back with the job: an identical submission is
	// born DONE without touching the adapter queue.
	if entries, _ := c2.Jobs().MemoStats(); entries < 1 {
		t.Fatalf("memo entries after recovery = %d, want >= 1", entries)
	}
	hit, err := c2.Jobs().Submit(ctx, "rsum", core.Values{"a": 2.0, "b": 40.0}, container.SubmitOptions{Owner: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != core.StateDone || hit.Outputs["sum"] != 42.0 {
		t.Errorf("memo hit after restart = state %s outputs %v, want instant DONE", hit.State, hit.Outputs)
	}
}

// TestRecoverRequeuesAbandonedJob simulates a crash with a job mid-flight:
// the first container is never closed (its adapter hangs), and a second
// container on the same directories must re-queue and re-drive the job to
// completion.
func TestRecoverRequeuesAbandonedJob(t *testing.T) {
	var allow atomic.Bool
	adapter.RegisterFunc("rectest.gated", func(ctx context.Context, _ core.Values) (core.Values, error) {
		if allow.Load() {
			return core.Values{"ok": true}, nil
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c1.Close) // runs after c2's cleanup; the "crash" is that c1 stays open now
	deployNative(t, c1, "gated", "rectest.gated", false, nil,
		[]core.Param{{Name: "ok", Optional: true}})
	job, err := c1.Jobs().Submit(ctx, "gated", core.Values{}, container.SubmitOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := c1.Jobs().Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == core.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// "Crash": abandon c1 with the job RUNNING and recover elsewhere.
	allow.Store(true)
	c2, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "gated", "rectest.gated", false, nil,
		[]core.Param{{Name: "ok", Optional: true}})
	if err := c2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	redone, err := c2.Jobs().Wait(ctx, job.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("re-driven job: %v", err)
	}
	if redone.State != core.StateDone || redone.Outputs["ok"] != true {
		t.Fatalf("re-driven job = state %s outputs %v, want DONE", redone.State, redone.Outputs)
	}
}

// TestRecoverMoreWaitingThanQueue restarts a container whose journal holds
// three queues' worth of live standalone jobs and a sweep as wide, into a
// container with a small queue: a restart re-drives everything that was
// accepted, past the admission bound, and runs each job exactly once.
func TestRecoverMoreWaitingThanQueue(t *testing.T) {
	const queueSize = 4
	var allow atomic.Bool
	var gated atomic.Int64 // runs stuck in the closed gate
	var mu sync.Mutex
	runs := make(map[float64]int)
	adapter.RegisterFunc("rectest.gatedkey", func(ctx context.Context, in core.Values) (core.Values, error) {
		if !allow.Load() {
			gated.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		k, _ := in["k"].(float64)
		mu.Lock()
		runs[k]++
		mu.Unlock()
		return core.Values{"ok": true}, nil
	})
	deploy := func(c *container.Container) {
		deployNative(t, c, "gatedkey", "rectest.gatedkey", false,
			[]core.Param{{Name: "k"}}, []core.Param{{Name: "ok"}})
	}
	dir := t.TempDir()
	ctx := context.Background()

	// The first container admits everything: its queue is the default.
	opts1 := durableOpts(dir, journal.SyncAlways)
	c1, err := container.New(opts1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c1.Close) // runs after c2's cleanup; the "crash" is that c1 stays open now
	deploy(c1)
	var ids []string
	for k := 0; k < 3*queueSize; k++ {
		job, err := c1.Jobs().Submit(ctx, "gatedkey", core.Values{"k": float64(k)}, container.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	axis := make([]any, 3*queueSize)
	for i := range axis {
		axis[i] = float64(100 + i)
	}
	sw, err := c1.Jobs().SubmitSweep(ctx, "gatedkey", &core.SweepSpec{Axes: map[string][]any{"k": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": abandon c1 once every one of its workers is stuck in the
	// gate, so it can finish nothing, and recover into a container whose
	// queue holds a sixth of the live work.
	for deadline := time.Now().Add(5 * time.Second); gated.Load() < int64(opts1.Workers); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers reached the gate", gated.Load(), opts1.Workers)
		}
		time.Sleep(time.Millisecond)
	}
	allow.Store(true)
	opts := durableOpts(dir, journal.SyncAlways)
	opts.QueueSize = queueSize
	c2, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deploy(c2)
	if err := c2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, id := range ids {
		if job, err := c2.Jobs().Wait(ctx, id, 10*time.Second); err != nil || job.State != core.StateDone {
			t.Fatalf("re-driven job %s: %+v (err=%v)", id, job, err)
		}
	}
	if done := waitSweepDone(t, c2, sw.ID); done.Counts.Done != len(axis) {
		t.Fatalf("re-driven sweep counts %+v, want %d DONE", done.Counts, len(axis))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != 6*queueSize {
		t.Errorf("adapter ran %d distinct jobs, want %d", len(runs), 6*queueSize)
	}
	for k, n := range runs {
		if n != 1 {
			t.Errorf("job k=%v ran %d times, want once", k, n)
		}
	}
}

// TestRecoverSweep restores a finished parameter sweep: the aggregate record,
// its counts, and every child job with its outputs.
func TestRecoverSweep(t *testing.T) {
	registerSum("rectest.sweepsum")
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := container.New(durableOpts(dir, journal.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	deployNative(t, c1, "ssum", "rectest.sweepsum", false, sumParams.in, sumParams.out)
	spec := &core.SweepSpec{
		Template: core.Values{"a": 10.0},
		Axes:     map[string][]any{"b": {1.0, 2.0, 3.0, 4.0, 5.0}},
	}
	sw, err := c1.Jobs().SubmitSweep(ctx, "ssum", spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Jobs().WaitSweep(ctx, sw.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close() // Close fsyncs and cleanly ends the journal

	c2, err := container.New(durableOpts(dir, journal.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "ssum", "rectest.sweepsum", false, sumParams.in, sumParams.out)
	if err := c2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	got, err := c2.Jobs().GetSweep(sw.ID)
	if err != nil {
		t.Fatalf("sweep not restored: %v", err)
	}
	if got.State != core.StateDone || got.Width != 5 || got.Counts.Done != 5 {
		t.Fatalf("restored sweep = state %s width %d counts %+v", got.State, got.Width, got.Counts)
	}
	sums := make(map[float64]bool)
	for _, j := range c2.Jobs().List("ssum") {
		if j.State != core.StateDone {
			t.Errorf("child %s state = %s", j.ID, j.State)
		}
		if s, ok := j.Outputs["sum"].(float64); ok {
			sums[s] = true
		}
	}
	for want := 11.0; want <= 15.0; want++ {
		if !sums[want] {
			t.Errorf("restored children missing sum %v (have %v)", want, sums)
		}
	}
}

// TestReaperPurgesExpired checks the UWS destruction-time plane: terminal
// jobs and sweeps past their TTL are purged together with the file resources
// they own, and nothing is touched before its time.
func TestReaperPurgesExpired(t *testing.T) {
	c, _ := startContainer(t)
	jm := c.Jobs()
	ctx := context.Background()

	job, err := jm.Submit(ctx, "add", core.Values{"a": 1.0, "b": 2.0}, container.SubmitOptions{Owner: "alice", TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done, err := jm.Wait(ctx, job.ID, 10*time.Second)
	if err != nil || done.State != core.StateDone {
		t.Fatalf("job: %v err=%v", done, err)
	}
	if done.Destruction.IsZero() || done.Destruction.Before(done.Finished) {
		t.Fatalf("destruction = %v, want finished+1h", done.Destruction)
	}
	fileID, err := c.Files().PutBytes([]byte("artifact"), job.ID)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := jm.SubmitSweep(ctx, "add", &core.SweepSpec{
		Template:    core.Values{"a": 1.0},
		Axes:        map[string][]any{"b": {1.0, 2.0}},
		Destruction: core.Duration(time.Hour),
	}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jm.WaitSweep(ctx, sw.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	if n := jm.Reap(time.Now()); n != 0 {
		t.Fatalf("premature reap destroyed %d jobs", n)
	}
	if n := jm.Reap(time.Now().Add(2 * time.Hour)); n < 3 {
		t.Fatalf("reap destroyed %d jobs, want >= 3 (1 standalone + 2 sweep children)", n)
	}
	if _, err := jm.Get(job.ID); err == nil {
		t.Error("reaped job still resolvable")
	}
	if _, err := jm.GetSweep(sw.ID); err == nil {
		t.Error("reaped sweep still resolvable")
	}
	if _, _, err := c.Files().Open(fileID); err == nil {
		t.Error("file owned by a reaped job still resolvable")
	}
}

// TestDestructionQueryParam is the HTTP surface of the TTL plane: a
// per-request ?destruction= sets the job's destruction time, and malformed
// durations are rejected with 400.
func TestDestructionQueryParam(t *testing.T) {
	_, srv := startContainer(t)

	resp, err := http.Post(srv.URL+"/services/add?wait=10s&destruction=45m",
		"application/json", strings.NewReader(`{"a": 1, "b": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var job core.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != core.StateDone {
		t.Fatalf("state = %s", job.State)
	}
	if job.Destruction.IsZero() {
		t.Error("DONE job has no destruction time despite ?destruction=45m")
	} else if d := job.Destruction.Sub(job.Finished); d < 44*time.Minute || d > 46*time.Minute {
		t.Errorf("destruction - finished = %v, want ~45m", d)
	}

	bad, err := http.Post(srv.URL+"/services/add?destruction=bogus",
		"application/json", strings.NewReader(`{"a": 1, "b": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("destruction=bogus status = %d, want 400", bad.StatusCode)
	}
}

// TestRecoveryMetricsExposed is the /metrics scrape gate for the durability
// plane: after a restart the WAL counters and the per-kind replay counter
// must be present and non-zero.
func TestRecoveryMetricsExposed(t *testing.T) {
	registerSum("rectest.metsum")
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	deployNative(t, c1, "msum", "rectest.metsum", false, sumParams.in, sumParams.out)
	job, err := c1.Jobs().Submit(ctx, "msum", core.Values{"a": 1.0, "b": 1.0}, container.SubmitOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Jobs().Wait(ctx, job.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "msum", "rectest.metsum", false, sumParams.in, sumParams.out)
	if err := c2.Recover(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c2.Handler())
	t.Cleanup(srv.Close)

	samples := scrapeMetrics(t, srv.URL)
	for _, name := range []string{"mc_wal_appends_total", "mc_wal_fsyncs_total", "mc_wal_bytes_total"} {
		if samples[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, samples[name])
		}
	}
	for _, kind := range []string{"job", "job_end"} {
		series := fmt.Sprintf("mc_recovery_replayed_total{kind=%q}", kind)
		if samples[series] < 1 {
			t.Errorf("%s = %v, want >= 1", series, samples[series])
		}
	}
}

// TestRecoverTimelineFromLogTail restarts a container whose journal has no
// checkpoint, so every job comes back from its submit image and end record
// alone: a DONE job must keep its whole timeline — start time, queue wait,
// run time, progress log and block states — not only its outputs.
func TestRecoverTimelineFromLogTail(t *testing.T) {
	adapter.RegisterRequestFunc("rectest.timeline", func(_ context.Context, req *adapter.Request) (*adapter.Result, error) {
		req.Progress("step 1")
		req.SetBlockState("solve", core.StateRunning)
		time.Sleep(5 * time.Millisecond)
		req.SetBlockState("solve", core.StateDone)
		req.Progress("step 2")
		return &adapter.Result{Outputs: core.Values{"ok": true}}, nil
	})
	dir := t.TempDir()
	ctx := context.Background()
	opts := durableOpts(dir, journal.SyncOff)
	opts.SnapshotInterval = -1

	c1, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	deployNative(t, c1, "timeline", "rectest.timeline", false, nil, []core.Param{{Name: "ok"}})
	job, err := c1.Jobs().Submit(ctx, "timeline", core.Values{}, container.SubmitOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c1.Jobs().Wait(ctx, job.ID, 10*time.Second)
	if err != nil || before.State != core.StateDone {
		t.Fatalf("first run: %v, %v", before, err)
	}
	if before.QueueWait == 0 || before.RunTime < core.Duration(5*time.Millisecond) || len(before.Log) != 2 {
		t.Fatalf("first run has no timeline to lose: %+v", before)
	}
	c1.Close()

	c2, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "timeline", "rectest.timeline", false, nil, []core.Param{{Name: "ok"}})
	if err := c2.Recover(); err != nil {
		t.Fatal(err)
	}
	after, err := c2.Jobs().Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != core.StateDone || !after.Started.Equal(before.Started) || !after.Finished.Equal(before.Finished) {
		t.Errorf("restored %s started %v finished %v, want DONE started %v finished %v",
			after.State, after.Started, after.Finished, before.Started, before.Finished)
	}
	if after.QueueWait != before.QueueWait || after.RunTime != before.RunTime {
		t.Errorf("restored queueWait %v runTime %v, want %v and %v",
			after.QueueWait.Std(), after.RunTime.Std(), before.QueueWait.Std(), before.RunTime.Std())
	}
	if !reflect.DeepEqual(after.Log, before.Log) || !reflect.DeepEqual(after.Blocks, before.Blocks) {
		t.Errorf("restored log %q blocks %v, want %q and %v", after.Log, after.Blocks, before.Log, before.Blocks)
	}
}

// journalKinds counts the records of each kind in the journal under dir.
// Opening the journal adds an empty segment, which a later replay skips.
func journalKinds(t *testing.T, dir string) map[journal.Kind]int {
	t.Helper()
	jl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	kinds := make(map[journal.Kind]int)
	if err := jl.Replay(func(kind journal.Kind, _ []byte) error { kinds[kind]++; return nil }); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestRecoverDiscardsDeadRunFiles crashes a job after it published an
// output file and before it landed.  The journal holds no start record, so
// recovery finds the dead run by its state alone: the job is re-driven and
// the stale output ID is gone.
func TestRecoverDiscardsDeadRunFiles(t *testing.T) {
	var (
		files atomic.Pointer[container.FileStore]
		stale atomic.Value
		allow atomic.Bool
	)
	adapter.RegisterRequestFunc("rectest.publisher", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		if allow.Load() {
			return &adapter.Result{Outputs: core.Values{"ok": true}}, nil
		}
		id, err := files.Load().PutBytes([]byte("partial"), req.JobID)
		if err != nil {
			return nil, err
		}
		stale.Store(id)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c1.Close) // runs after c2's cleanup; the "crash" is that c1 stays open now
	files.Store(c1.Files())
	deployNative(t, c1, "publisher", "rectest.publisher", false, nil, []core.Param{{Name: "ok", Optional: true}})
	job, err := c1.Jobs().Submit(ctx, "publisher", core.Values{}, container.SubmitOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); stale.Load() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job never published its output")
		}
	}
	staleID := stale.Load().(string)
	kinds := journalKinds(t, dir)
	if kinds[journal.KindFilePut] != 1 || kinds[journal.KindJobStart] != 0 {
		t.Fatalf("journal before the crash holds %d file_put and %d job_start records, want 1 and 0",
			kinds[journal.KindFilePut], kinds[journal.KindJobStart])
	}

	allow.Store(true)
	c2, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "publisher", "rectest.publisher", false, nil, []core.Param{{Name: "ok", Optional: true}})
	if err := c2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Files().Digest(staleID); err == nil {
		t.Errorf("stale output %s of the dead run survived recovery", staleID)
	}
	redone, err := c2.Jobs().Wait(ctx, job.ID, 10*time.Second)
	if err != nil || redone.State != core.StateDone || redone.Outputs["ok"] != true {
		t.Fatalf("re-driven job = %+v, %v; want DONE", redone, err)
	}
}

// TestRecoverLogOfStartRecords replays a hand-built segment in the format
// written before end records carried the timeline: a job image, a start
// record and an end record without timeline fields per job, beside a sweep,
// a file and a memo entry.  Every one comes back as it did then; the DONE
// job's start time comes from its start record.
func TestRecoverLogOfStartRecords(t *testing.T) {
	registerSum("rectest.oldsum")
	dir := t.TempDir()
	ctx := context.Background()

	blob := []byte("old payload")
	digest := fmt.Sprintf("%x", sha256.Sum256(blob))
	// durableOpts puts the data directory at dir/files; the store keeps
	// its blobs under that directory's files/.
	blobDir := filepath.Join(dir, "files", "files")
	if err := os.MkdirAll(blobDir, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blobDir, "sha256-"+digest), blob, 0o600); err != nil {
		t.Fatal(err)
	}
	jobID, sweepID, child1, child2, fileID := core.NewID(), core.NewID(), core.NewID(), core.NewID(), core.NewID()
	const (
		created  = "2026-01-02T03:04:05Z"
		started  = "2026-01-02T03:04:06.5Z"
		finished = "2026-01-02T03:04:07Z"
		zero     = "0001-01-01T00:00:00Z"
	)
	image := func(id, state, inputs string) string {
		return `{"job":{"id":"` + id + `","service":"osum","state":"` + state + `","inputs":` + inputs +
			`,"created":"` + created + `","submitted":"` + created + `","started":"` + zero +
			`","finished":"` + zero + `","destruction":"` + zero + `","owner":"alice"}}`
	}
	records := []struct {
		kind journal.Kind
		body string
	}{
		{journal.KindFilePut, `{"id":"` + fileID + `","digest":"` + digest + `","size":11,"owner":"alice"}`},
		{journal.KindJob, image(jobID, "WAITING", `{"a":2,"b":40}`)},
		{journal.KindJobStart, `{"id":"` + jobID + `","started":"` + started + `"}`},
		{journal.KindMemoPut, `{"key":"k-old","service":"osum","jobId":"` + jobID + `","outputs":{"sum":42}}`},
		{journal.KindJobEnd, `{"id":"` + jobID + `","state":"DONE","outputs":{"sum":42},"finished":"` + finished + `","destruction":"` + zero + `"}`},
		{journal.KindSweep, `{"id":"` + sweepID + `","service":"osum","owner":"alice","created":"` + created +
			`","width":2,"childIds":["` + child1 + `","` + child2 + `"],"template":{"a":10},"points":[{"b":1},{"b":2}]}`},
		{journal.KindJobStart, `{"id":"` + child1 + `","started":"` + started + `"}`},
		{journal.KindJobEnd, `{"id":"` + child1 + `","state":"DONE","outputs":{"sum":11},"finished":"` + finished + `","destruction":"` + zero + `"}`},
		{journal.KindJobStart, `{"id":"` + child2 + `","started":"` + started + `"}`},
	}
	jl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := jl.Append(r.kind, json.RawMessage(r.body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := container.New(durableOpts(dir, journal.SyncOff))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	deployNative(t, c, "osum", "rectest.oldsum", true, sumParams.in, sumParams.out)
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	job, err := c.Jobs().Get(jobID)
	if err != nil {
		t.Fatal(err)
	}
	wantStarted, _ := time.Parse(time.RFC3339Nano, started)
	wantFinished, _ := time.Parse(time.RFC3339Nano, finished)
	if job.State != core.StateDone || job.Outputs["sum"] != 42.0 || job.Owner != "alice" ||
		!job.Started.Equal(wantStarted) || !job.Finished.Equal(wantFinished) {
		t.Errorf("old-format job = %s %v owner %q started %v finished %v; want DONE sum=42 alice %v %v",
			job.State, job.Outputs, job.Owner, job.Started, job.Finished, wantStarted, wantFinished)
	}
	if d, err := c.Files().Digest(fileID); err != nil || d != digest {
		t.Errorf("old-format file = %q, %v; want digest %s", d, err, digest)
	}
	if entries, _ := c.Jobs().MemoStats(); entries != 1 {
		t.Errorf("memo entries = %d, want 1", entries)
	}
	// The first child landed before the crash, the second died running and
	// is re-driven from its re-derived inputs.
	sw, err := c.Jobs().WaitSweep(ctx, sweepID, 10*time.Second)
	if err != nil || sw.State != core.StateDone || sw.Counts.Done != 2 {
		t.Fatalf("old-format sweep = %+v, %v; want DONE with 2 done children", sw, err)
	}
	for id, want := range map[string]float64{child1: 11, child2: 12} {
		child, err := c.Jobs().Get(id)
		if err != nil || child.Outputs["sum"] != want {
			t.Errorf("child %s = %+v, %v; want sum=%v", id, child, err, want)
		}
	}
	if child, _ := c.Jobs().Get(child1); child == nil || !child.Started.Equal(wantStarted) {
		t.Errorf("landed child started %v, want %v from its start record", child.Started, wantStarted)
	}
}
