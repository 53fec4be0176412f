package container_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
)

// deployCounting deploys a service whose adapter counts its executions and
// echoes f(x) = 2x, optionally flagged deterministic.
func deployCounting(t *testing.T, c *container.Container, name string, deterministic bool, calls *atomic.Int64) {
	t.Helper()
	fn := "memo." + name
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
			Inputs:        []core.Param{{Name: "x"}},
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

func newMemoContainer(t *testing.T, opts container.Options) *container.Container {
	t.Helper()
	opts.Logger = quietLogger()
	c, err := container.New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitDone(t *testing.T, c *container.Container, id string) *core.Job {
	t.Helper()
	job, err := c.Jobs().Wait(context.Background(), id, 10*time.Second)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if !job.State.Terminal() {
		t.Fatalf("job %s not terminal after wait: %s", id, job.State)
	}
	return job
}

func TestRepeatSubmitServedFromCache(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	deployCounting(t, c, "det", true, &calls)

	first, err := c.Jobs().Submit(context.Background(), "det", core.Values{"x": 21.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := waitDone(t, c, first.ID)
	if firstDone.State != core.StateDone || firstDone.Outputs["y"] != 42.0 {
		t.Fatalf("cold job: state=%s outputs=%v", firstDone.State, firstDone.Outputs)
	}

	// The repeat submit must come back DONE immediately — no queue, no
	// adapter execution — under a distinct job ID.
	second, err := c.Jobs().Submit(context.Background(), "det", core.Values{"x": 21.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != core.StateDone {
		t.Fatalf("repeat submit state = %s, want DONE at submit time", second.State)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit must mint a fresh job resource")
	}
	if second.Outputs["y"] != 42.0 {
		t.Fatalf("cached outputs = %v", second.Outputs)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("adapter executed %d times, want 1", n)
	}

	// Different inputs miss.
	third, err := c.Jobs().Submit(context.Background(), "det", core.Values{"x": 5.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, c, third.ID).Outputs["y"]; got != 10.0 {
		t.Fatalf("miss outputs = %v", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("adapter executed %d times after distinct input, want 2", n)
	}
}

func TestNonDeterministicServiceBypassesMemo(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	deployCounting(t, c, "plain", false, &calls)

	for i := 0; i < 3; i++ {
		job, err := c.Jobs().Submit(context.Background(), "plain", core.Values{"x": 1.0}, container.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, job.ID)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("adapter executed %d times, want 3 (no memoization without the flag)", n)
	}
	if entries, _ := c.Jobs().MemoStats(); entries != 0 {
		t.Fatalf("memo holds %d entries for a non-deterministic service", entries)
	}
}

// TestConcurrentIdenticalSubmitsCoalesce is the singleflight acceptance
// test: N simultaneous identical submissions share exactly one adapter
// execution and all complete with its outputs.
func TestConcurrentIdenticalSubmitsCoalesce(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	release := make(chan struct{})
	adapter.RegisterFunc("memo.gate", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		x, _ := in["x"].(float64)
		return core.Values{"y": 2 * x}, nil
	})
	c := newMemoContainer(t, container.Options{Workers: 4})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "gate", Version: "1", Deterministic: true,
			Inputs:  []core.Param{{Name: "x"}},
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "memo.gate"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, n)
	var submitted sync.WaitGroup
	var finished sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		submitted.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			job, err := c.Jobs().Submit(context.Background(), "gate", core.Values{"x": 3.0}, container.SubmitOptions{})
			submitted.Done()
			if err != nil {
				errs <- err
				return
			}
			ids[i] = job.ID
			done, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if done.State != core.StateDone || done.Outputs["y"] != 6.0 {
				errs <- fmt.Errorf("job %s: state=%s outputs=%v", job.ID, done.State, done.Outputs)
			}
		}(i)
	}
	submitted.Wait()
	close(release)
	finished.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("adapter executed %d times for %d identical submits, want exactly 1", got, n)
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate job ID across coalesced submissions")
		}
		seen[id] = true
	}
}

// TestMemoEvictionChurn hammers a tiny cache from many goroutines and
// asserts that eviction under churn never serves outputs that do not match
// the submitted inputs.
func TestMemoEvictionChurn(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{
		Workers:        4,
		MemoMaxEntries: 4,
		MemoMaxBytes:   1 << 20,
	})
	deployCounting(t, c, "churn", true, &calls)

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := float64((g + i) % 13)
				job, err := c.Jobs().Submit(context.Background(), "churn", core.Values{"x": x}, container.SubmitOptions{})
				if err != nil {
					errs <- err
					return
				}
				done, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if done.State != core.StateDone {
					errs <- fmt.Errorf("job %s: %s (%s)", job.ID, done.State, done.Error)
					return
				}
				if got := done.Outputs["y"]; got != 2*x {
					errs <- fmt.Errorf("wrong cached result: x=%v got y=%v want %v", x, got, 2*x)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if entries, _ := c.Jobs().MemoStats(); entries > 4 {
		t.Fatalf("memo holds %d entries, bound is 4", entries)
	}
}

func TestMemoInvalidatedOnRedeploy(t *testing.T) {
	c := newMemoContainer(t, container.Options{Workers: 2})
	deploy := func(fn string) {
		t.Helper()
		cfg := container.ServiceConfig{
			Description: core.ServiceDescription{
				Name: "recfg", Version: "1", Deterministic: true,
				Inputs:  []core.Param{{Name: "x"}},
				Outputs: []core.Param{{Name: "mark"}},
			},
			Adapter: container.AdapterSpec{
				Kind:   "native",
				Config: mustJSON(t, adapter.NativeConfig{Function: fn}),
			},
		}
		if err := c.Deploy(cfg); err != nil {
			t.Fatal(err)
		}
	}
	adapter.RegisterFunc("memo.markA", func(ctx context.Context, in core.Values) (core.Values, error) {
		return core.Values{"mark": "A"}, nil
	})
	adapter.RegisterFunc("memo.markB", func(ctx context.Context, in core.Values) (core.Values, error) {
		return core.Values{"mark": "B"}, nil
	})

	deploy("memo.markA")
	job, err := c.Jobs().Submit(context.Background(), "recfg", core.Values{"x": 1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, c, job.ID).Outputs["mark"]; got != "A" {
		t.Fatalf("first deploy produced %v", got)
	}

	// Same name, same version, different adapter configuration: the cache
	// must not serve the stale "A".
	if err := c.Undeploy("recfg"); err != nil {
		t.Fatal(err)
	}
	deploy("memo.markB")
	job, err = c.Jobs().Submit(context.Background(), "recfg", core.Values{"x": 1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, c, job.ID)
	if got := done.Outputs["mark"]; got != "B" {
		t.Fatalf("after redeploy got %v, want B (stale cache entry served)", got)
	}
}

// TestMemoPurgedWithBackingJobFiles covers the file lifetime contract: the
// cached entry references the backing job's output files, so deleting that
// job purges the entry and the next submit re-executes.
func TestMemoPurgedWithBackingJobFiles(t *testing.T) {
	var calls atomic.Int64
	adapter.RegisterRequestFunc("memo.filer", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		calls.Add(1)
		path := filepath.Join(req.WorkDir, "out.dat")
		if err := os.WriteFile(path, []byte("payload"), 0o600); err != nil {
			return nil, err
		}
		return &adapter.Result{Files: map[string]string{"data": path}}, nil
	})
	c := newMemoContainer(t, container.Options{Workers: 2})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "filer", Version: "1", Deterministic: true,
			Inputs:  []core.Param{{Name: "x"}},
			Outputs: []core.Param{{Name: "data"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "memo.filer"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	first, err := c.Jobs().Submit(context.Background(), "filer", core.Values{"x": 1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := waitDone(t, c, first.ID)
	if entries, _ := c.Jobs().MemoStats(); entries != 1 {
		t.Fatalf("memo entries = %d after cold run, want 1", entries)
	}

	// A hit while the backing job lives returns its file reference.
	hit, err := c.Jobs().Submit(context.Background(), "filer", core.Values{"x": 1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != core.StateDone || hit.Outputs["data"] != firstDone.Outputs["data"] {
		t.Fatalf("hit = %s %v, want DONE with %v", hit.State, hit.Outputs, firstDone.Outputs)
	}

	// Deleting the terminal backing job destroys its files and must purge
	// the cache entry with them.
	if _, err := c.Jobs().Delete(first.ID); err != nil {
		t.Fatal(err)
	}
	if entries, _ := c.Jobs().MemoStats(); entries != 0 {
		t.Fatalf("memo entries = %d after backing job delete, want 0", entries)
	}
	again, err := c.Jobs().Submit(context.Background(), "filer", core.Values{"x": 1.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, again.ID)
	if n := calls.Load(); n != 2 {
		t.Fatalf("adapter executed %d times, want 2 (re-execution after purge)", n)
	}
}

// TestMemoFileInputsKeyedByContent asserts the content-addressing of file
// inputs: a re-upload of identical bytes gets a different file ID but the
// same computation key.
func TestMemoFileInputsKeyedByContent(t *testing.T) {
	var calls atomic.Int64
	adapter.RegisterRequestFunc("memo.reader", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		calls.Add(1)
		data, err := os.ReadFile(req.Files["f"])
		if err != nil {
			return nil, err
		}
		return &adapter.Result{Outputs: core.Values{"len": float64(len(data))}}, nil
	})
	c := newMemoContainer(t, container.Options{Workers: 2})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "reader", Version: "1", Deterministic: true,
			Inputs:  []core.Param{{Name: "f"}},
			Outputs: []core.Param{{Name: "len"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "memo.reader"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("scattering curve "), 64)
	id1, err := c.Files().Put(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Files().Put(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("expected distinct file IDs for the two uploads")
	}

	job, err := c.Jobs().Submit(context.Background(), "reader", core.Values{"f": core.FileRef(id1)}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, c, job.ID).Outputs["len"]

	// Same bytes behind a different ID: must be a cache hit.
	hit, err := c.Jobs().Submit(context.Background(), "reader", core.Values{"f": core.FileRef(id2)}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != core.StateDone || hit.Outputs["len"] != want {
		t.Fatalf("content-keyed hit = %s %v, want DONE %v", hit.State, hit.Outputs, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("adapter executed %d times, want 1", n)
	}

	// Different content misses.
	id3, err := c.Files().Put(bytes.NewReader(append(payload, '!')), "")
	if err != nil {
		t.Fatal(err)
	}
	job3, err := c.Jobs().Submit(context.Background(), "reader", core.Values{"f": core.FileRef(id3)}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, job3.ID)
	if n := calls.Load(); n != 2 {
		t.Fatalf("adapter executed %d times after distinct content, want 2", n)
	}
}

// TestCloseReleasesCoalescedFollowers asserts the shutdown contract holds
// for followers: Close cancels the in-flight leader, and every coalesced
// waiter unblocks with a terminal state.
func TestCloseReleasesCoalescedFollowers(t *testing.T) {
	adapter.RegisterFunc("memo.block", func(ctx context.Context, in core.Values) (core.Values, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := newMemoContainer(t, container.Options{Workers: 2})
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "block", Version: "1", Deterministic: true,
			Inputs: []core.Param{{Name: "x"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "memo.block"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}

	const n = 5
	var wg sync.WaitGroup
	states := make(chan core.JobState, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := c.Jobs().Submit(context.Background(), "block", core.Values{"x": 1.0}, container.SubmitOptions{})
			if err != nil {
				return
			}
			done, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second)
			if err == nil {
				states <- done.State
			}
		}()
	}
	// Give the submissions a moment to coalesce, then shut down.
	time.Sleep(50 * time.Millisecond)
	c.Close()
	wg.Wait()
	close(states)
	for s := range states {
		if !s.Terminal() {
			t.Fatalf("waiter observed non-terminal state %s after Close", s)
		}
	}
}
