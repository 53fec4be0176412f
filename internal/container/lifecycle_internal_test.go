package container

// One table over every route a job can take into a terminal state.  All of
// them end in JobManager.land, so whichever route a case drives the same
// invariants must hold: exactly one terminal event on the job's bus topic,
// Wait released, the waiting/running gauges balanced, sweep counts summing
// to the width, and exactly one JobEnd record in the journal.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/journal"
)

// lifecycleEnv is one case's container: a single worker, so a job blocked on
// the gate keeps everything submitted after it WAITING, plus the list of
// observed jobs with the state each must land in.
type lifecycleEnv struct {
	t      *testing.T
	c      *Container
	jm     *JobManager
	gate   chan struct{}
	open   sync.Once
	ids    []string
	want   []core.JobState
	sweeps []string
}

// newLifecycleEnv deploys four services over one adapter function whose
// behaviour the "mode" input selects: "gate" (plain), "det" (deterministic,
// so identical submissions coalesce), "slow" (30ms execution deadline) and
// "batch" (declares "batch": true).
func newLifecycleEnv(t *testing.T, journalDir string) *lifecycleEnv {
	t.Helper()
	c, err := New(Options{
		Workers:    1,
		DataDir:    filepath.Join(t.TempDir(), "files"),
		JournalDir: journalDir,
		WALSync:    journal.SyncOff,
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	e := &lifecycleEnv{t: t, c: c, jm: c.Jobs(), gate: make(chan struct{})}
	fn := "lifecycle." + t.Name()
	adapter.RegisterFunc(fn, func(ctx context.Context, in core.Values) (core.Values, error) {
		mode, _ := in["mode"].(string)
		if mode == "free" {
			return core.Values{"y": 1.0}, nil
		}
		if mode != "hang" {
			select {
			case <-e.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		switch mode {
		case "ok":
			return core.Values{"y": 1.0}, nil
		case "fail":
			return nil, errors.New("adapter says no")
		case "panic":
			panic("adapter blew up")
		default: // hang
			<-ctx.Done()
			return nil, ctx.Err()
		}
	})
	for _, desc := range []core.ServiceDescription{
		{Name: "gate"},
		{Name: "det", Version: "1", Deterministic: true},
		{Name: "slow", Deadline: core.Duration(30 * time.Millisecond)},
		{Name: "batch", Batch: true},
	} {
		desc.Inputs = []core.Param{{Name: "mode"}, {Name: "x", Optional: true}}
		desc.Outputs = []core.Param{{Name: "y"}}
		cfg, _ := json.Marshal(adapter.NativeConfig{Function: fn})
		if err := c.Deploy(ServiceConfig{Description: desc, Adapter: AdapterSpec{Kind: "native", Config: cfg}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func (e *lifecycleEnv) release() { e.open.Do(func() { close(e.gate) }) }

func (e *lifecycleEnv) observe(id string, want core.JobState) {
	e.ids = append(e.ids, id)
	e.want = append(e.want, want)
}

// submit creates one observed job and returns its ID.
func (e *lifecycleEnv) submit(service, mode string, x float64, want core.JobState) string {
	e.t.Helper()
	job, err := e.jm.Submit(service, core.Values{"mode": mode, "x": x}, "")
	if err != nil {
		e.t.Fatalf("Submit %s/%s: %v", service, mode, err)
	}
	e.observe(job.ID, want)
	return job.ID
}

// sweep submits one observed sweep of explicit points and returns the child
// IDs in point order.
func (e *lifecycleEnv) sweep(service string, points []core.Values, want ...core.JobState) []string {
	e.t.Helper()
	sw, err := e.jm.SubmitSweep(context.Background(), service, &core.SweepSpec{Points: points}, "")
	if err != nil {
		e.t.Fatalf("SubmitSweep: %v", err)
	}
	rec, err := e.jm.sweepRec(sw.ID)
	if err != nil {
		e.t.Fatal(err)
	}
	for i, id := range rec.childIDs {
		e.observe(id, want[i])
	}
	e.sweeps = append(e.sweeps, sw.ID)
	return rec.childIDs
}

func (e *lifecycleEnv) waitRunning(id string) {
	e.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if job, err := e.jm.Get(id); err == nil && job.State == core.StateRunning {
			return
		}
	}
	e.t.Fatalf("job %s never reached RUNNING", id)
}

func (e *lifecycleEnv) delete(id string) {
	e.t.Helper()
	if _, err := e.jm.Delete(id); err != nil {
		e.t.Fatalf("Delete(%s): %v", id, err)
	}
}

func point(mode string, x float64) core.Values { return core.Values{"mode": mode, "x": x} }

func TestEveryRouteLandsExactlyOnce(t *testing.T) {
	const (
		done      = core.StateDone
		failed    = core.StateError
		cancelled = core.StateCancelled
	)
	cases := []struct {
		name string
		// arrange submits the observed jobs, all of which must still be live
		// when it returns; act then drives them to their terminal states.
		arrange func(e *lifecycleEnv) (act func())
		// batches is how many InvokeBatch calls the case must record in
		// mc_batch_size.
		batches uint64
	}{
		{name: "worker done", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done)
			return e.release
		}},
		{name: "adapter error", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "fail", 1, failed)
			return e.release
		}},
		{name: "adapter panic", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "panic", 1, failed)
			return e.release
		}},
		{name: "deadline overrun", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done) // holds the worker until act
			e.submit("slow", "hang", 1, failed)
			return e.release
		}},
		{name: "delete while running", arrange: func(e *lifecycleEnv) func() {
			id := e.submit("gate", "hang", 1, cancelled)
			e.waitRunning(id)
			return func() { e.delete(id) }
		}},
		{name: "delete while queued", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done)
			id := e.submit("gate", "ok", 2, cancelled)
			return func() { e.delete(id); e.release() }
		}},
		{name: "close drains the queue", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "hang", 1, cancelled)
			e.submit("gate", "ok", 2, cancelled)
			return e.c.Close
		}},
		{name: "undeployed while queued", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done)
			e.submit("slow", "ok", 2, failed)
			return func() {
				if err := e.c.Undeploy("slow"); err != nil {
					e.t.Fatal(err)
				}
				e.release()
			}
		}},
		{name: "follower of a done leader", arrange: func(e *lifecycleEnv) func() {
			e.submit("det", "ok", 1, done)
			e.submit("det", "ok", 1, done)
			return e.release
		}},
		{name: "follower of a cancelled leader", arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done)
			leader := e.submit("det", "ok", 1, cancelled)
			e.submit("det", "ok", 1, failed)
			return func() { e.delete(leader); e.release() }
		}},
		{name: "follower of a queue-full leader", arrange: func(e *lifecycleEnv) func() {
			// The leader of a rejected flight never becomes a record, and the
			// window in which a follower can join it is a few instructions of
			// SubmitTTL, so the flight is led by hand and failed the way the
			// rejection path fails it.
			svc, err := e.c.service("det")
			if err != nil {
				e.t.Fatal(err)
			}
			key, ok := e.jm.memoKey(svc, svc.desc.ApplyDefaults(point("ok", 1)))
			if _, _, lead := e.jm.memo.joinOrLead(key, &jobRecord{}); !ok || !lead {
				e.t.Fatal("could not lead the flight")
			}
			e.submit("det", "ok", 1, failed)
			return func() { e.jm.failFlight(key, "container: coalesced execution was rejected: job queue is full") }
		}},
		{name: "sweep children of each kind", arrange: func(e *lifecycleEnv) func() {
			ids := e.sweep("det", []core.Values{
				point("ok", 1),   // worker DONE, leads a flight
				point("ok", 1),   // coalesced follower of the first point
				point("fail", 2), // adapter error
				point("hang", 3), // cancelled while RUNNING
				point("ok", 4),   // cancelled while queued
			}, done, done, failed, cancelled, cancelled)
			return func() {
				e.delete(ids[4])
				e.release()
				e.waitRunning(ids[3])
				e.delete(ids[3])
			}
		}},
		{name: "sweep cancelled as a whole", arrange: func(e *lifecycleEnv) func() {
			ids := e.sweep("gate", []core.Values{point("hang", 1), point("ok", 2), point("ok", 3)},
				cancelled, cancelled, cancelled)
			e.waitRunning(ids[0])
			return func() {
				if _, err := e.jm.DeleteSweep(e.sweeps[0]); err != nil {
					e.t.Fatal(err)
				}
			}
		}},
		{name: "batch of one", arrange: func(e *lifecycleEnv) func() {
			// A lone job of a batch-capable service and a job of a plain one
			// both go through Invoke: no batch is recorded.
			e.submit("gate", "ok", 1, done)
			e.submit("batch", "free", 1, done)
			e.submit("gate", "free", 2, done)
			return e.release
		}},
		{name: "batch shrinks to one", arrange: func(e *lifecycleEnv) func() {
			// Two members are drained together, but one was cancelled while
			// queued: the survivor is a single Invoke, not a batch.
			e.submit("gate", "ok", 1, done)
			e.submit("batch", "free", 1, done)
			id := e.submit("batch", "free", 2, cancelled)
			return func() { e.delete(id); e.release() }
		}},
		{name: "real batch", batches: 1, arrange: func(e *lifecycleEnv) func() {
			e.submit("gate", "ok", 1, done)
			for x := 1.0; x <= 3; x++ {
				e.submit("batch", "free", x, done)
			}
			return e.release
		}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			waiting, running := metJobsWaiting.Value(), metJobsRunning.Value()
			batches := metBatchSize.Count()
			journalDir := filepath.Join(t.TempDir(), "journal")
			e := newLifecycleEnv(t, journalDir)

			act := tc.arrange(e)
			subs := make([]*events.Subscriber, len(e.ids))
			for i, id := range e.ids {
				subs[i] = e.c.Events().Subscribe(events.JobTopic(id), 0)
			}
			act()
			for i, id := range e.ids {
				job, err := e.jm.Wait(context.Background(), id, 10*time.Second)
				if err != nil {
					t.Fatalf("Wait(%s): %v", id, err)
				}
				if job.State != e.want[i] {
					t.Errorf("job %d landed %s (%s), want %s", i, job.State, job.Error, e.want[i])
				}
			}
			e.release() // unblocks jobs a failed case left on the gate
			// Close joins the workers, so every transition has published and
			// journaled by the time it returns, and closing the bus ends the
			// subscriber channels.
			e.c.Close()

			for i, sub := range subs {
				terminal := 0
				for ev := range sub.C {
					var job core.Job
					if err := json.Unmarshal(ev.Data, &job); err != nil {
						t.Fatalf("job %d: undecodable %s event: %v", i, ev.Type, err)
					}
					if job.State.Terminal() != ev.End {
						t.Errorf("job %d: %s event has End=%v", i, job.State, ev.End)
					}
					if ev.End {
						terminal++
					}
				}
				if terminal != 1 {
					t.Errorf("job %d saw %d terminal events, want exactly 1", i, terminal)
				}
			}
			if got := metJobsWaiting.Value(); got != waiting {
				t.Errorf("mc_jobs_waiting = %v, started at %v", got, waiting)
			}
			if got := metJobsRunning.Value(); got != running {
				t.Errorf("mc_jobs_running = %v, started at %v", got, running)
			}
			if got := metBatchSize.Count() - batches; got != tc.batches {
				t.Errorf("mc_batch_size recorded %d batches, want %d", got, tc.batches)
			}
			for _, id := range e.sweeps {
				sw, err := e.jm.GetSweep(id)
				if err != nil {
					t.Fatal(err)
				}
				if n := sw.Counts; n.Waiting != 0 || n.Running != 0 || n.Terminal() != sw.Width {
					t.Errorf("sweep counts %+v do not sum to width %d", n, sw.Width)
				}
			}

			ends := make(map[string]int)
			jl, err := journal.Open(journalDir, journal.Options{Mode: journal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer jl.Close()
			err = jl.Replay(func(kind journal.Kind, data []byte) error {
				if kind != journal.KindJobEnd {
					return nil
				}
				var end journal.JobEndRecord
				if err := journal.Decode(data, &end); err != nil {
					return err
				}
				ends[end.ID]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range e.ids {
				if ends[id] != 1 {
					t.Errorf("job %d has %d JobEnd records in the journal, want exactly 1", i, ends[id])
				}
			}
		})
	}
}
