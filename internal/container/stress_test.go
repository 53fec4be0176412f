package container_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
)

// TestJobManagerConcurrentStress hammers one container with concurrent
// Submit/Wait/Delete/List/Get from many goroutines.  The assertions are
// loose on purpose: the test exists to let the race detector walk the job
// manager's locking under real contention (run with -race).
func TestJobManagerConcurrentStress(t *testing.T) {
	adapter.RegisterFunc("stress.echo", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"x": in["x"]}, nil
	})
	c, err := container.New(container.Options{Workers: 8, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "echo",
			Inputs:  []core.Param{{Name: "x", Optional: true}},
			Outputs: []core.Param{{Name: "x", Optional: true}}},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"stress.echo"}`)},
	}); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 25
	jobs := c.Jobs()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				job, err := jobs.Submit(context.Background(), "echo", core.Values{"x": float64(g*iters + i)}, container.SubmitOptions{})
				if err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				switch i % 4 {
				case 0, 1:
					done, err := jobs.Wait(ctx, job.ID, 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("wait: %w", err)
						return
					}
					if done.State != core.StateDone {
						errs <- fmt.Errorf("job state = %s (%s)", done.State, done.Error)
						return
					}
				case 2:
					// Delete races the worker: cancel-while-queued,
					// cancel-while-running and purge-after-done are all
					// legal outcomes.
					if _, err := jobs.Delete(job.ID); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 3:
					jobs.List("echo")
					if _, err := jobs.Get(job.ID); err != nil {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Drain: every surviving job must reach a terminal state.
	for _, j := range jobs.List("") {
		done, err := jobs.Wait(ctx, j.ID, 10*time.Second)
		if err != nil {
			continue // deleted concurrently
		}
		if !done.State.Terminal() {
			t.Errorf("job %s stuck in state %s", done.ID, done.State)
		}
	}
}

// TestQueuedJobCancelledNeverRuns pins the cancel-while-queued contract: a
// job deleted while still WAITING transitions to CANCELLED and is never
// started by a worker.
func TestQueuedJobCancelledNeverRuns(t *testing.T) {
	release := make(chan struct{})
	var ran sync.Map
	adapter.RegisterFunc("stress.gate", func(ctx context.Context, in core.Values) (core.Values, error) {
		if id, ok := in["id"].(string); ok {
			ran.Store(id, true)
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Values{}, nil
	})
	c, err := container.New(container.Options{Workers: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "gate",
			Inputs: []core.Param{{Name: "id", Optional: true}}},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"stress.gate"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()

	// Occupy the single worker, then queue a second job behind it.
	blocker, err := jobs.Submit(context.Background(), "gate", core.Values{"id": "blocker"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitForRun := time.After(5 * time.Second)
	for {
		if _, ok := ran.Load("blocker"); ok {
			break
		}
		select {
		case <-waitForRun:
			t.Fatal("blocker never started")
		case <-time.After(time.Millisecond):
		}
	}
	queued, err := jobs.Submit(context.Background(), "gate", core.Values{"id": "queued"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job before the worker can reach it.
	cancelled, err := jobs.Delete(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != core.StateCancelled {
		t.Fatalf("state after delete-while-queued = %s, want %s", cancelled.State, core.StateCancelled)
	}

	// Release the worker and let it drain the queue; the cancelled job
	// must be skipped, not executed.
	close(release)
	ctx := context.Background()
	if _, err := jobs.Wait(ctx, blocker.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	final, err := jobs.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != core.StateCancelled {
		t.Errorf("final state = %s, want %s", final.State, core.StateCancelled)
	}
	if !final.Started.IsZero() {
		t.Error("cancelled queued job has a start timestamp; it must never transition to RUNNING")
	}
	if _, ok := ran.Load("queued"); ok {
		t.Error("cancelled queued job was executed by a worker")
	}
}
