package container_test

// Job-lifecycle race tests (run under -race in CI): DELETE racing a
// concurrent finish, terminal-job deletion purging files exactly once, and
// queue-full submission storms.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
)

// Cancel-while-running racing the job's own completion: whichever side wins,
// the job must land in exactly one terminal state and every waiter returns.
func TestCancelRacesConcurrentFinish(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 4, QueueSize: 256})
	const jobs = 48
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "sleep"}, container.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		// One goroutine cancels, one waits; the job completes on its own
		// at roughly the same time.
		go func(id string) {
			defer wg.Done()
			_, _ = c.Jobs().Delete(id)
		}(job.ID)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			j, err := c.Jobs().Wait(ctx, id, 10*time.Second)
			if err == nil && !j.State.Terminal() {
				t.Errorf("job %s non-terminal after wait: %s", id, j.State)
			}
		}(job.ID)
	}
	wg.Wait()
	for _, j := range c.Jobs().List("") {
		switch j.State {
		case core.StateDone, core.StateCancelled:
		default:
			t.Errorf("job %s = %s (%s), want DONE or CANCELLED", j.ID, j.State, j.Error)
		}
	}
}

// Deleting a terminal job destroys the record and purges its subordinate
// file resources exactly once, even when deletes race.
func TestDeleteTerminalJobPurgesFilesOnce(t *testing.T) {
	adapter.RegisterRequestFunc("test.filemaker", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		path := filepath.Join(req.WorkDir, "out.dat")
		if err := os.WriteFile(path, []byte("payload"), 0o600); err != nil {
			return nil, err
		}
		return &adapter.Result{Files: map[string]string{"data": path}}, nil
	})
	c, err := container.New(container.Options{Workers: 2, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "filemaker",
			Outputs: []core.Param{{Name: "data"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"test.filemaker"}`)},
	}); err != nil {
		t.Fatal(err)
	}

	job, err := c.Jobs().Submit(context.Background(), "filemaker", core.Values{}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, job.ID)
	if done.State != core.StateDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	if c.Files().Count() != 1 {
		t.Fatalf("file count = %d, want 1", c.Files().Count())
	}

	// Concurrent deletes of the terminal job: the purge must happen once,
	// later deletes see the record gone.
	var wg sync.WaitGroup
	okCount := 0
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Jobs().Delete(job.ID); err == nil {
				mu.Lock()
				okCount++
				mu.Unlock()
			} else if !core.IsNotFound(err) {
				t.Errorf("unexpected delete error: %v", err)
			}
		}()
	}
	wg.Wait()
	if okCount != 1 {
		t.Errorf("%d deletes succeeded, want exactly 1", okCount)
	}
	if got := c.Files().Count(); got != 0 {
		t.Errorf("file count after delete = %d, want 0", got)
	}
	if _, err := c.Jobs().Get(job.ID); !core.IsNotFound(err) {
		t.Errorf("terminal job still present after delete: %v", err)
	}
}

// A storm of submissions against a tiny queue: every call either yields a
// job that reaches a terminal state or the transient queue-full error, and
// the job map stays consistent.
func TestQueueFullSubmitStorm(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 2, QueueSize: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "sleep"}, container.SubmitOptions{})
				if err != nil {
					var unavail *core.UnavailableError
					if !asUnavailable(err, &unavail) {
						t.Errorf("submit error = %v, want UnavailableError", err)
					}
					continue
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		done := waitTerminal(t, c, id)
		if done.State != core.StateDone {
			t.Errorf("job %s = %s (%s)", id, done.State, done.Error)
		}
	}
}
