package container

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// otherKey is a context key no one sets.
type otherKey struct{}

// derived holds the contexts a test derives from a job context once its
// Done has been called, and a channel AfterFunc closes.
type derived struct {
	cancel, timeout context.Context
	after           chan struct{}
}

func derive(t *testing.T, ctx context.Context) derived {
	d := derived{after: make(chan struct{})}
	var stop context.CancelFunc
	d.cancel, stop = context.WithCancel(ctx)
	t.Cleanup(stop)
	d.timeout, stop = context.WithTimeout(ctx, time.Hour)
	t.Cleanup(stop)
	context.AfterFunc(ctx, func() { close(d.after) })
	return d
}

// awaitClosed fails unless ch closes within a few seconds.
func awaitClosed(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never closed", what)
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// sameContext fails unless got answers as want does.  Done and the derived
// contexts are compared only once Done has been called (gotKids non-nil),
// so the cases before it see a context that has not materialised.
func sameContext(t *testing.T, step string, got, want context.Context, gotKids, wantKids *derived) {
	t.Helper()
	if g, w := got.Err(), want.Err(); g != w {
		t.Fatalf("after %s: Err = %v, want %v", step, g, w)
	}
	gd, gok := got.Deadline()
	wd, wok := want.Deadline()
	if gok != wok || !gd.Equal(wd) {
		t.Fatalf("after %s: Deadline = %v, %v; want %v, %v", step, gd, gok, wd, wok)
	}
	gid, gidOK := obs.RequestIDFrom(got)
	wid, widOK := obs.RequestIDFrom(want)
	if gid != wid || gidOK != widOK {
		t.Fatalf("after %s: request ID %q, %v; want %q, %v", step, gid, gidOK, wid, widOK)
	}
	if v := got.Value(otherKey{}); v != nil {
		t.Fatalf("after %s: Value(otherKey) = %v, want nil", step, v)
	}
	if g, w := context.Cause(got), context.Cause(want); g != w {
		t.Fatalf("after %s: Cause = %v, want %v", step, g, w)
	}
	if gotKids == nil {
		return
	}
	if want.Err() != nil {
		awaitClosed(t, "the job context's Done", got.Done())
		for _, kids := range []*derived{gotKids, wantKids} {
			awaitClosed(t, "a derived WithCancel", kids.cancel.Done())
			awaitClosed(t, "a derived WithTimeout", kids.timeout.Done())
			awaitClosed(t, "an AfterFunc", kids.after)
		}
	} else if isClosed(got.Done()) || isClosed(gotKids.cancel.Done()) ||
		isClosed(gotKids.timeout.Done()) || isClosed(gotKids.after) {
		t.Fatalf("after %s: the live job context or a context derived from it is done", step)
	}
	for _, pair := range []struct {
		got, want context.Context
		// exact: the two deadlines are the same instant, not two calls'
		// time.Now() plus an hour.
		exact bool
	}{
		{gotKids.cancel, wantKids.cancel, true},
		{gotKids.timeout, wantKids.timeout, wok},
	} {
		g, w := pair.got, pair.want
		if g.Err() != w.Err() || context.Cause(g) != context.Cause(w) {
			t.Fatalf("after %s: derived Err %v cause %v; want %v cause %v",
				step, g.Err(), context.Cause(g), w.Err(), context.Cause(w))
		}
		gd, gok := g.Deadline()
		wd, wok := w.Deadline()
		if gok != wok || pair.exact && !gd.Equal(wd) {
			t.Fatalf("after %s: derived Deadline %v, %v; want %v, %v", step, gd, gok, wd, wok)
		}
		if gid, _ := obs.RequestIDFrom(g); gid != wid {
			t.Fatalf("after %s: derived request ID %q, want %q", step, gid, wid)
		}
	}
}

// TestJobContextConformance holds a running job's context (its runningJob)
// to obs.WithRequestID(context.WithCancel(parent)), the pair of contexts it
// replaces, through every order of the events that end it: DELETE, the
// parent's cancel (Close), the parent's deadline and cleanup, each before
// and after the first Done call.  Contexts derived with WithCancel,
// WithTimeout and AfterFunc after that call must end with it.
func TestJobContextConformance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []string
	}{
		{"live", []string{"done"}},
		{"delete before done", []string{"delete", "done"}},
		{"delete after done", []string{"done", "delete"}},
		{"close before done", []string{"close", "done"}},
		{"close after done", []string{"done", "close"}},
		{"deadline before done", []string{"deadline", "done"}},
		{"deadline after done", []string{"done", "deadline"}},
		{"cleanup before done", []string{"cleanup", "done"}},
		{"cleanup after done", []string{"done", "cleanup"}},
		{"delete then deadline", []string{"delete", "deadline", "done"}},
		{"deadline then delete", []string{"deadline", "delete", "done"}},
		{"done then deadline then delete", []string{"done", "deadline", "delete", "cleanup"}},
		{"delete then close", []string{"delete", "close", "done", "cleanup"}},
		{"close then delete", []string{"close", "delete", "cleanup", "done"}},
		{"done then delete then close", []string{"done", "delete", "close", "cleanup"}},
		{"cleanup then deadline", []string{"cleanup", "deadline", "done"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Options{
				Workers: 1,
				DataDir: filepath.Join(t.TempDir(), "files"),
				Logger:  log.New(io.Discard, "", 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			jm := c.jobs
			trace := "trace-" + tc.name
			rec := newJobRecord(jobRequest{
				id: c.newID(), service: "ctx",
				created: time.Now(), submitted: time.Now(), traceID: trace,
			})
			jm.register(rec)
			// Admitted as push admits it; beginJob takes it out again.
			jm.queue.waiting.Add(1)
			metJobsWaiting.Add(1)

			parent := jm.baseCtx
			var deadline time.Duration
			for _, s := range tc.steps {
				if s == "deadline" {
					deadline = 100 * time.Millisecond
					var cancel context.CancelFunc
					parent, cancel = context.WithTimeout(parent, deadline)
					t.Cleanup(cancel)
				}
			}
			rj := jm.beginJob(rec, parent, deadline)
			if rj == nil {
				t.Fatal("beginJob refused a WAITING job")
			}
			oracleBase, oracleCancel := context.WithCancel(parent)
			t.Cleanup(oracleCancel)
			oracle := obs.WithRequestID(oracleBase, trace)

			var gotKids, wantKids *derived
			sameContext(t, "beginJob", rj, oracle, nil, nil)
			for _, step := range tc.steps {
				switch step {
				case "done":
					_, _ = rj.Done(), oracle.Done()
					g, w := derive(t, rj), derive(t, oracle)
					gotKids, wantKids = &g, &w
				case "delete":
					if _, err := jm.Delete(rec.id); err != nil {
						t.Fatal(err)
					}
					oracleCancel()
				case "close":
					jm.Close()
					awaitEnded(t, parent, oracleBase, rj, gotKids != nil)
				case "deadline":
					awaitEnded(t, parent, oracleBase, rj, gotKids != nil)
				case "cleanup":
					rj.cleanup()
					oracleCancel()
				}
				sameContext(t, step, rj, oracle, gotKids, wantKids)
			}
			// Land the job, as its worker would, so the gauges balance.
			rj.finish(nil, rj.Err())
			rj.cleanup()
			if job, _ := jm.Get(rec.id); !job.State.Terminal() {
				t.Fatalf("job %s after finish", job.State)
			}
		})
	}
}

// awaitEnded waits until parent has ended and its cancellation has reached
// the oracle and, once materialised, the job context: a parent closes its
// own Done before it cancels its children.
func awaitEnded(t *testing.T, parent, oracle context.Context, job *runningJob, materialised bool) {
	t.Helper()
	awaitClosed(t, "the parent's Done", parent.Done())
	awaitClosed(t, "the oracle's Done", oracle.Done())
	if materialised {
		awaitClosed(t, "the job context's Done", job.Done())
	}
}

// TestJobContextDeleteRaces runs DELETEs against beginJob and against
// landing while one service's adapter blocks on ctx.Done(), as the command
// adapter does, and another polls ctx.Err(), as the script adapter does.
// A blocked job must land CANCELLED, a polling one DONE or CANCELLED, and
// each adapter must see its job's trace in its context.
func TestJobContextDeleteRaces(t *testing.T) {
	c, err := New(Options{
		Workers: 4,
		DataDir: filepath.Join(t.TempDir(), "files"),
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fn := "jobctx." + t.Name()
	adapter.RegisterFunc(fn, func(ctx context.Context, in core.Values) (core.Values, error) {
		trace, _ := obs.RequestIDFrom(ctx)
		if want, _ := in["trace"].(string); trace != want {
			return nil, fmt.Errorf("adapter saw trace %q, want %q", trace, want)
		}
		if in["mode"] == "block" {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		for i := 0; i < 50; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runtime.Gosched()
		}
		return core.Values{"y": 1.0}, nil
	})
	cfg, _ := json.Marshal(adapter.NativeConfig{Function: fn})
	if err := c.Deploy(ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "race",
			Inputs:  []core.Param{{Name: "mode"}, {Name: "trace"}, {Name: "i"}},
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: AdapterSpec{Kind: "native", Config: cfg},
	}); err != nil {
		t.Fatal(err)
	}
	jm := c.jobs
	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for i := 0; i < rounds; i++ {
		for _, mode := range []string{"block", "poll"} {
			trace := fmt.Sprintf("%s-%d", mode, i)
			ctx := obs.WithRequestID(context.Background(), trace)
			job, err := jm.Submit(ctx, "race", core.Values{"mode": mode, "trace": trace, "i": float64(i)}, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id, mode string, i int) {
				defer wg.Done()
				// Spread the DELETEs over a queued job, one beginning, a
				// running one and, for the polling service, a landing one.
				for k := 0; k < i%4; k++ {
					runtime.Gosched()
				}
				done := make(chan *core.Job, 1)
				go func() {
					job, _ := jm.Wait(context.Background(), id, 10*time.Second)
					done <- job
				}()
				if _, err := jm.Delete(id); err != nil {
					errs <- fmt.Errorf("Delete(%s): %v", id, err)
					return
				}
				job := <-done
				switch {
				case job == nil:
					// Destroyed by the DELETE: it had landed before it.
					if mode == "block" {
						errs <- fmt.Errorf("blocked job %s landed before its DELETE", id)
					}
				case mode == "block" && job.State != core.StateCancelled,
					mode == "poll" && job.State != core.StateCancelled && job.State != core.StateDone:
					errs <- fmt.Errorf("%s job %s landed %s (%s)", mode, id, job.State, job.Error)
				}
			}(job.ID, mode, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A landing balances the gauges after it releases its waiters.
	for deadline := time.Now().Add(5 * time.Second); jm.running.Load() != 0 || jm.queue.depth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs running and %d waiting after every job landed", jm.running.Load(), jm.queue.depth())
		}
	}
}
