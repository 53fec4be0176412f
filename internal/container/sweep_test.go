package container_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
)

// deploySweepService deploys a doubling service (y = 2x) whose adapter
// counts executions, with the given determinism flag.
func deploySweepService(t *testing.T, c *container.Container, name string, deterministic bool, calls *atomic.Int64) {
	t.Helper()
	fn := "sweep." + name
	adapter.RegisterFunc(fn, func(ctx context.Context, in core.Values) (core.Values, error) {
		calls.Add(1)
		x, _ := in["x"].(float64)
		return core.Values{"y": 2 * x}, nil
	})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:          name,
			Version:       "1",
			Deterministic: deterministic,
			Inputs:        []core.Param{{Name: "x"}, {Name: "scale", Optional: true}},
			Outputs:       []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: fn}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatalf("Deploy %s: %v", name, err)
	}
}

func waitSweepDone(t *testing.T, c *container.Container, id string) *core.Sweep {
	t.Helper()
	sweep, err := c.Jobs().WaitSweep(context.Background(), id, 30*time.Second)
	if err != nil {
		t.Fatalf("WaitSweep(%s): %v", id, err)
	}
	if !sweep.State.Terminal() {
		t.Fatalf("sweep %s not terminal after wait: %s", id, sweep.State)
	}
	return sweep
}

func TestSweepExpandsAndCompletes(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 4})
	deploySweepService(t, c, "expand", false, &calls)

	spec := &core.SweepSpec{
		Template: core.Values{"scale": 1.0},
		Axes:     map[string][]any{"x": {1.0, 2.0, 3.0, 4.0, 5.0}},
	}
	sweep, err := c.Jobs().SubmitSweep(context.Background(), "expand", spec, "alice")
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if sweep.Width != 5 {
		t.Fatalf("width = %d, want 5", sweep.Width)
	}
	if sweep.Owner != "alice" {
		t.Fatalf("owner = %q", sweep.Owner)
	}
	done := waitSweepDone(t, c, sweep.ID)
	if done.State != core.StateDone || done.Counts.Done != 5 {
		t.Fatalf("sweep finished %s with counts %+v", done.State, done.Counts)
	}
	if done.Finished.IsZero() || done.Finished.Before(done.Created) {
		t.Fatalf("bad timeline: created=%v finished=%v", done.Created, done.Finished)
	}

	// Children come back in point order with the template merged in.
	jobs, total, err := c.Jobs().SweepChildren(sweep.ID, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(jobs) != 5 {
		t.Fatalf("children: total=%d len=%d", total, len(jobs))
	}
	for i, j := range jobs {
		want := float64(i + 1)
		if j.Inputs["x"] != want || j.Inputs["scale"] != 1.0 {
			t.Fatalf("child %d inputs = %v", i, j.Inputs)
		}
		if j.State != core.StateDone || j.Outputs["y"] != 2*want {
			t.Fatalf("child %d: state=%s outputs=%v", i, j.State, j.Outputs)
		}
		if j.TraceID != sweep.TraceID {
			t.Fatalf("child %d trace %q != sweep trace %q", i, j.TraceID, sweep.TraceID)
		}
	}

	// Pagination and state filtering over the children.
	page, total, err := c.Jobs().SweepChildren(sweep.ID, core.StateDone, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(page) != 2 {
		t.Fatalf("page: total=%d len=%d", total, len(page))
	}
	if page[0].Inputs["x"] != 2.0 || page[1].Inputs["x"] != 3.0 {
		t.Fatalf("page out of point order: %v, %v", page[0].Inputs, page[1].Inputs)
	}
	if _, total, err = c.Jobs().SweepChildren(sweep.ID, core.StateError, 0, 0); err != nil || total != 0 {
		t.Fatalf("error-filtered children: total=%d err=%v", total, err)
	}
}

// TestSweepMemoOverlap is the reuse acceptance test: re-running a sweep with
// overlapping points executes only the new points, because sweep children
// share the computation cache (and its canonical hashes) with every other
// submission path.
func TestSweepMemoOverlap(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 4})
	deploySweepService(t, c, "overlap", true, &calls)

	points := func(lo, hi int) []core.Values {
		var out []core.Values
		for x := lo; x <= hi; x++ {
			out = append(out, core.Values{"x": float64(x)})
		}
		return out
	}
	first, err := c.Jobs().SubmitSweep(context.Background(), "overlap",
		&core.SweepSpec{Template: core.Values{"scale": 2.0}, Points: points(1, 8)}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, c, first.ID)
	if n := calls.Load(); n != 8 {
		t.Fatalf("cold sweep executed %d adapters, want 8", n)
	}

	// Points 5..8 overlap; only 9..12 may execute.
	second, err := c.Jobs().SubmitSweep(context.Background(), "overlap",
		&core.SweepSpec{Template: core.Values{"scale": 2.0}, Points: points(5, 12)}, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitSweepDone(t, c, second.ID)
	if done.Counts.Done != 8 {
		t.Fatalf("overlapping sweep counts %+v", done.Counts)
	}
	if n := calls.Load(); n != 12 {
		t.Fatalf("after overlap total executions = %d, want 12 (only new points run)", n)
	}

	// The cached children carry real outputs.
	jobs, _, err := c.Jobs().SweepChildren(second.ID, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want := 2 * float64(i+5)
		if j.State != core.StateDone || j.Outputs["y"] != want {
			t.Fatalf("child %d: state=%s outputs=%v want y=%v", i, j.State, j.Outputs, want)
		}
	}

	// A single plain submit of an already-swept point is also a hit: the
	// canonical-hash prefix is shared both ways.
	hit, err := c.Jobs().Submit(context.Background(), "overlap", core.Values{"x": 3.0, "scale": 2.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != core.StateDone || hit.Outputs["y"] != 6.0 {
		t.Fatalf("single submit after sweep: state=%s outputs=%v", hit.State, hit.Outputs)
	}
	if n := calls.Load(); n != 12 {
		t.Fatalf("single submit re-executed: %d", n)
	}
}

// TestSweepCancelReleasesChildrenAndFiles covers whole-sweep cancellation:
// one DELETE cancels the running child, releases every queued child, and
// frees the shared staged files owned by the sweep.
func TestSweepCancelReleasesChildrenAndFiles(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	adapter.RegisterRequestFunc("sweep.gate", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &adapter.Result{Outputs: core.Values{"y": 1.0}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer close(release)

	// A remote input shared by every point: the sweep must stage it once and
	// own the staged copy.
	payload := []byte("shared structure data")
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer remote.Close()

	c := newMemoContainer(t, container.Options{Workers: 1})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "gate", Version: "1",
			Inputs:  []core.Param{{Name: "x"}, {Name: "data", Optional: true}},
			Outputs: []core.Param{{Name: "y", Optional: true}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "sweep.gate"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	baseline := c.Files().Count()
	spec := &core.SweepSpec{
		Template: core.Values{"data": core.FileRef(remote.URL + "/shared.dat")},
		Axes:     map[string][]any{"x": {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}},
	}
	sweep, err := c.Jobs().SubmitSweep(context.Background(), "gate", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Files().Count(); got != baseline+1 {
		t.Fatalf("staged files = %d, want exactly one shared copy over baseline %d", got, baseline)
	}
	<-started // one child is running, the rest are queued

	cancelled, err := c.Jobs().DeleteSweep(sweep.ID)
	if err != nil {
		t.Fatalf("DeleteSweep: %v", err)
	}
	if cancelled.State.Terminal() && cancelled.Counts.Cancelled == 0 {
		t.Fatalf("cancel returned %s with counts %+v", cancelled.State, cancelled.Counts)
	}
	done := waitSweepDone(t, c, sweep.ID)
	if done.State != core.StateCancelled {
		t.Fatalf("sweep state after cancel = %s (counts %+v)", done.State, done.Counts)
	}
	if done.Counts.Cancelled != 8 {
		t.Fatalf("cancelled children = %d, want 8 (counts %+v)", done.Counts.Cancelled, done.Counts)
	}
	jobs, _, err := c.Jobs().SweepChildren(sweep.ID, core.StateCancelled, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("cancelled child listing = %d, want 8", len(jobs))
	}
	if got := c.Files().Count(); got != baseline {
		t.Fatalf("staged files after cancel = %d, want baseline %d (shared copy released)", got, baseline)
	}
}

// TestSweepBatchExecution exercises adapter micro-batching: a batch-capable
// service amortizes adapter invocations across queued points, and a failing
// point stays isolated to its own job.
func TestSweepBatchExecution(t *testing.T) {
	var batchCalls, points atomic.Int64
	gate := make(chan struct{})
	var gateOnce atomic.Bool
	// The single-point form must exist too (non-sweep submissions use it);
	// the batch form registers second because RegisterFunc resets the name.
	adapter.RegisterFunc("sweep.batcher", func(ctx context.Context, in core.Values) (core.Values, error) {
		batchCalls.Add(1)
		points.Add(1)
		x, _ := in["x"].(float64)
		return core.Values{"y": 2 * x}, nil
	})
	adapter.RegisterBatchFunc("sweep.batcher", func(ctx context.Context, batch []core.Values) ([]core.Values, []error) {
		batchCalls.Add(1)
		points.Add(int64(len(batch)))
		if gateOnce.CompareAndSwap(false, true) {
			// Hold the first invocation until the whole campaign is queued,
			// so later drains see a full queue.
			<-gate
		}
		outs := make([]core.Values, len(batch))
		errs := make([]error, len(batch))
		for i, in := range batch {
			x, _ := in["x"].(float64)
			if x == 13 {
				errs[i] = fmt.Errorf("unlucky point")
				continue
			}
			outs[i] = core.Values{"y": 2 * x}
		}
		return outs, errs
	})

	c := newMemoContainer(t, container.Options{Workers: 1, BatchMaxSize: 16})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "batcher", Version: "1", Batch: true,
			Inputs:  []core.Param{{Name: "x"}},
			Outputs: []core.Param{{Name: "y", Optional: true}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "sweep.batcher"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	const width = 32
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i + 1)
	}
	sweep, err := c.Jobs().SubmitSweep(context.Background(), "batcher",
		&core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	done := waitSweepDone(t, c, sweep.ID)

	if done.Counts.Done != width-1 || done.Counts.Error != 1 {
		t.Fatalf("counts %+v, want %d done and 1 isolated error", done.Counts, width-1)
	}
	if done.State != core.StateError {
		t.Fatalf("aggregate state = %s, want ERROR (severity order)", done.State)
	}
	if done.FirstError == "" {
		t.Fatal("firstError empty on a failed campaign")
	}
	if n := points.Load(); n != width {
		t.Fatalf("adapter saw %d points, want %d", n, width)
	}
	if n := batchCalls.Load(); n >= width {
		t.Fatalf("adapter invoked %d times for %d points: no batching happened", n, width)
	}
	failed, _, err := c.Jobs().SweepChildren(sweep.ID, core.StateError, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0].Inputs["x"] != 13.0 {
		t.Fatalf("failed children: %v", failed)
	}
	t.Logf("width %d served by %d adapter invocations", width, batchCalls.Load())
}

// TestSweepWiderThanQueue asserts that a sweep wider than the queue's
// admission bound is admitted whole and completes.
func TestSweepWiderThanQueue(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2, QueueSize: 4})
	deploySweepService(t, c, "wide", false, &calls)

	const width = 64
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i)
	}
	sweep, err := c.Jobs().SubmitSweep(context.Background(), "wide",
		&core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitSweepDone(t, c, sweep.ID)
	if done.State != core.StateDone || done.Counts.Done != width {
		t.Fatalf("wide sweep: %s %+v", done.State, done.Counts)
	}
	if n := calls.Load(); n != width {
		t.Fatalf("executed %d, want %d", n, width)
	}
}

// TestSweepStatusAllocsConstant pins the O(1) contract of the aggregate
// status read: snapshotting a width-1024 sweep allocates the same as a
// width-16 one.
func TestSweepStatusAllocsConstant(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 4})
	deploySweepService(t, c, "alloc", false, &calls)

	submit := func(width int) string {
		axis := make([]any, width)
		for i := range axis {
			axis[i] = float64(i)
		}
		sweep, err := c.Jobs().SubmitSweep(context.Background(), "alloc",
			&core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
		if err != nil {
			t.Fatal(err)
		}
		waitSweepDone(t, c, sweep.ID)
		return sweep.ID
	}
	narrow, wide := submit(16), submit(1024)

	measure := func(id string) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := c.Jobs().GetSweep(id); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a1024 := measure(narrow), measure(wide)
	if a1024 > a16 {
		t.Fatalf("status allocs grew with width: %v at 16 vs %v at 1024", a16, a1024)
	}
	t.Logf("status allocs: %v at width 16, %v at width 1024", a16, a1024)
}

// TestSweepRejectsOverWidthAndBadPoints covers submission-time validation:
// the width cap and per-point input validation fail the whole sweep before
// any child is created.
func TestSweepRejectsOverWidthAndBadPoints(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 1, MaxSweepWidth: 4})
	deploySweepService(t, c, "strict", false, &calls)

	_, err := c.Jobs().SubmitSweep(context.Background(), "strict",
		&core.SweepSpec{Axes: map[string][]any{"x": {1.0, 2.0, 3.0, 4.0, 5.0}}}, "")
	if err == nil {
		t.Fatal("over-width sweep accepted")
	}

	// Point 1 is missing the required input x.
	_, err = c.Jobs().SubmitSweep(context.Background(), "strict",
		&core.SweepSpec{Points: []core.Values{{"x": 1.0}, {"scale": 2.0}}}, "")
	if err == nil {
		t.Fatal("sweep with an invalid point accepted")
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("rejected sweeps executed %d adapters", n)
	}
	if got := c.Jobs().ListSweeps("strict"); len(got) != 0 {
		t.Fatalf("rejected sweeps left %d records", len(got))
	}
}
