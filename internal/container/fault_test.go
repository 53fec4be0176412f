package container_test

// Fault-injection tests: the acceptance contract of the fault-tolerance
// layer.  An adapter panic lands the job in ERROR (with the stack, and the
// worker pool intact), a deadline overrun lands it in ERROR with a timeout
// message, a flaky transport is absorbed by the client retry policy, and
// Close during load leaves zero non-terminal jobs and no hung waiter.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/rest"
	"mathcloud/internal/rest/resttest"
)

// chaosContainer starts a container with one "chaos" service whose failure
// mode is chosen per request through the "mode" input.
func chaosContainer(t *testing.T, opts container.Options) *container.Container {
	t.Helper()
	opts.Logger = quietLogger()
	c, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(chaosService("chaos", 0)); err != nil {
		t.Fatal(err)
	}
	return c
}

func chaosService(name string, deadline time.Duration) container.ServiceConfig {
	return container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:     name,
			Deadline: core.Duration(deadline),
			Inputs:   []core.Param{{Name: "mode", Optional: true}},
			Outputs:  []core.Param{{Name: "ok", Optional: true}},
		},
		Adapter: container.AdapterSpec{Kind: "chaos", Config: json.RawMessage(`{}`)},
	}
}

func waitTerminal(t *testing.T, c *container.Container, jobID string) *core.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := c.Jobs().Wait(ctx, jobID, 10*time.Second)
	if err != nil {
		t.Fatalf("Wait(%s): %v", jobID, err)
	}
	if !job.State.Terminal() {
		t.Fatalf("job %s still %s after wait", jobID, job.State)
	}
	return job
}

func TestAdapterPanicMarksJobErrorAndWorkerSurvives(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 1})

	job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "panic"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, job.ID)
	if done.State != core.StateError {
		t.Fatalf("panicked job state = %s, want ERROR", done.State)
	}
	if !strings.Contains(done.Error, "panic") || !strings.Contains(done.Error, "goroutine") {
		t.Errorf("job error lacks panic message or captured stack: %.200s", done.Error)
	}

	// The single worker survived the panic: a follow-up job completes.
	job2, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if done2 := waitTerminal(t, c, job2.ID); done2.State != core.StateDone {
		t.Errorf("job after panic = %s (%s), want DONE", done2.State, done2.Error)
	}
}

func TestServiceDeadlineOverrunMarksJobError(t *testing.T) {
	c, err := container.New(container.Options{Workers: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(chaosService("bounded", 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	job, err := c.Jobs().Submit(context.Background(), "bounded", core.Values{"mode": "hang"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, job.ID)
	if done.State != core.StateError {
		t.Fatalf("overrunning job state = %s, want ERROR", done.State)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Errorf("job error = %q, want a deadline/timeout message", done.Error)
	}
}

func TestContainerDefaultDeadlineApplies(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 1, DefaultJobDeadline: 50 * time.Millisecond})
	job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "hang"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, job.ID)
	if done.State != core.StateError || !strings.Contains(done.Error, "deadline") {
		t.Errorf("job = %s (%q), want ERROR with deadline message", done.State, done.Error)
	}
}

// Cancellation via DELETE must still map to CANCELLED, not to a deadline
// ERROR, when a deadline is also configured.
func TestCancelUnderDeadlineStaysCancelled(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 1, DefaultJobDeadline: 10 * time.Second})
	job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "hang"}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker pick it up, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := c.Jobs().Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == core.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Jobs().Delete(job.ID); err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, c, job.ID); done.State != core.StateCancelled {
		t.Errorf("cancelled job state = %s, want CANCELLED", done.State)
	}
}

func TestQueueFullReturns503WithRetryAfter(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 1, QueueSize: 1})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Saturate the single worker and the single queue slot with hanging
	// jobs, then overflow over HTTP.  A submit can transiently fail while
	// the worker is still dequeuing the first job, so retry until both
	// slots hold a hanging job: one running forever, one queued forever.
	var accepted []string
	deadline := time.Now().Add(5 * time.Second)
	for len(accepted) < 2 {
		job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "hang"}, container.SubmitOptions{})
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("could not saturate the container: %v", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		accepted = append(accepted, job.ID)
	}
	resp, err := http.Post(srv.URL+"/services/chaos", "application/json",
		strings.NewReader(`{"mode":"hang"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Drain(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response carries no Retry-After header")
	}
	// Unblock the hanging jobs so Close does not wait on them.
	for _, id := range accepted {
		_, _ = c.Jobs().Delete(id)
	}
}

// An end-to-end run through a flaky transport: the client's retry policy
// absorbs a dropped connection and a 503 before the call succeeds.
func TestClientCallSurvivesFlakyTransport(t *testing.T) {
	c := chaosContainer(t, container.Options{Workers: 2})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	flaky := resttest.Script(srv.Client().Transport, resttest.Drop, resttest.Unavailable)
	cl := client.New()
	cl.HTTP = &http.Client{Transport: flaky}
	cl.Retry = &rest.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}

	out, err := cl.Service(srv.URL+"/services/chaos").Call(context.Background(), core.Values{})
	if err != nil {
		t.Fatalf("call through flaky transport failed: %v", err)
	}
	if out["ok"] != true {
		t.Errorf("outputs = %v", out)
	}
	if flaky.Attempts() < 3 {
		t.Errorf("attempts = %d, want >= 3 (drop + 503 + success)", flaky.Attempts())
	}
}

// Close during load: every accepted job reaches a terminal state and every
// concurrent waiter unblocks.
func TestCloseDuringLoadLeavesZeroNonTerminalJobs(t *testing.T) {
	opts := container.Options{Workers: 4, QueueSize: 256, Logger: quietLogger()}
	c, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(chaosService("chaos", 0)); err != nil {
		t.Fatal(err)
	}

	const jobs = 64
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		mode := "sleep"
		if i%4 == 0 {
			mode = "hang" // only shutdown can terminate these
		}
		job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": mode}, container.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	// One waiter per job, all blocked before Close.
	var wg sync.WaitGroup
	states := make([]core.JobState, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			job, err := c.Jobs().Wait(ctx, id, 15*time.Second)
			if err == nil {
				states[i] = job.State
			}
		}(i, id)
	}

	time.Sleep(10 * time.Millisecond) // let some jobs start running
	c.Close()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(20 * time.Second):
		t.Fatal("waiters still blocked after Close")
	}

	for i, s := range states {
		if !s.Terminal() {
			t.Fatalf("job %d (%s) ended non-terminal: %q", i, ids[i], s)
		}
	}
	for _, j := range c.Jobs().List("") {
		if !j.State.Terminal() {
			t.Errorf("job %s left in state %s after Close", j.ID, j.State)
		}
	}
}

// Submissions racing shutdown either get a terminal job or a transient
// unavailable error — never a stuck WAITING job.
func TestSubmitRacingCloseNeverStrandsJobs(t *testing.T) {
	c, err := container.New(container.Options{Workers: 2, QueueSize: 8, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(chaosService("chaos", 0)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				job, err := c.Jobs().Submit(context.Background(), "chaos", core.Values{"mode": "sleep"}, container.SubmitOptions{})
				if err != nil {
					var unavail *core.UnavailableError
					if !asUnavailable(err, &unavail) {
						t.Errorf("unexpected submit error: %v", err)
					}
					continue
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()

	for _, id := range ids {
		job, err := c.Jobs().Get(id)
		if err != nil {
			continue // deleted is fine; stuck is not
		}
		if !job.State.Terminal() {
			t.Errorf("job %s stranded in %s after Close", id, job.State)
		}
	}
}
