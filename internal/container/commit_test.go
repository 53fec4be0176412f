package container_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/journal"
)

// Tests of the commit point: a job transition is journaled, then published,
// then stored, so what a reader can see is already in the log and on the
// bus, and no reader sees a job go backwards.

// holdLanding makes land block on the job that match selects between
// building its terminal image and journaling it.  It returns a channel
// that receives once the landing is held, and the function that lets it
// go; the hook is removed when the test ends.
func holdLanding(t *testing.T, match func(*core.Job) bool) (held <-chan struct{}, letGo func()) {
	t.Helper()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	var once sync.Once
	letGo = func() { once.Do(func() { close(gate) }) }
	container.SetLandHook(func(j *core.Job) {
		if match(j) {
			entered <- struct{}{}
			<-gate
		}
	})
	t.Cleanup(func() {
		letGo()
		container.SetLandHook(nil)
	})
	return entered, letGo
}

// pollState GETs the job every few milliseconds for d and fails the test
// if it ever reads a state other than want.
func pollState(t *testing.T, get func() core.JobState, want core.JobState, d time.Duration) {
	t.Helper()
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if got := get(); got != want {
			t.Fatalf("job read %s while its landing was held, want %s", got, want)
		}
	}
}

// TestLandPublishedBeforeVisible holds a landing between its build and its
// publication: GET keeps reading RUNNING, and once GET reads the terminal
// state, a fresh attach to the job's topic opens past the terminal event.
func TestLandPublishedBeforeVisible(t *testing.T) {
	_, svcURL, release := startEventsContainer(t, container.Options{})
	job := submitGated(t, svcURL)
	jobURL := svcURL + "/jobs/" + job.ID
	get := func() core.JobState {
		var j core.Job
		mustGetJSON(t, jobURL, &j)
		return j.State
	}
	for deadline := time.Now().Add(5 * time.Second); get() != core.StateRunning; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
	}
	// Pin the job topic, so its events are kept for a later attach.
	resp := openStream(t, jobURL+"/events")
	first, err := events.NewScanner(resp.Body).Next()
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	held, letGo := holdLanding(t, func(j *core.Job) bool { return j.ID == job.ID })
	release()
	<-held
	pollState(t, get, core.StateRunning, 50*time.Millisecond)
	letGo()
	for deadline := time.Now().Add(5 * time.Second); !get().Terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never landed")
		}
	}

	resp = openStream(t, jobURL+"/events?lastEventId=0")
	defer resp.Body.Close()
	ev, err := events.NewScanner(resp.Body).Next()
	if err != nil {
		t.Fatal(err)
	}
	var j core.Job
	if err := json.Unmarshal(ev.Data, &j); err != nil {
		t.Fatal(err)
	}
	if !j.State.Terminal() || ev.ID <= first.ID {
		t.Fatalf("attach after GET read terminal: event %d state %s, want terminal past event %d", ev.ID, j.State, first.ID)
	}
}

// TestLandJournaledBeforeVisible holds a landing before its job_end append
// under SyncAlways: GET never reads DONE while it is held, and once GET
// reads DONE, a copy of the data directory recovers the job DONE with the
// same outputs.
func TestLandJournaledBeforeVisible(t *testing.T) {
	gate := make(chan struct{})
	adapter.RegisterFunc("committest.sum", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
	dir := t.TempDir()
	c, err := container.New(durableOpts(dir, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	deployNative(t, c, "csum", "committest.sum", false, sumParams.in, sumParams.out)
	jm := c.Jobs()

	job, err := jm.Submit(context.Background(), "csum", core.Values{"a": 20.0, "b": 22.0}, container.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held, letGo := holdLanding(t, func(j *core.Job) bool { return j.ID == job.ID })
	close(gate)
	<-held
	get := func() core.JobState {
		j, err := jm.Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		return j.State
	}
	pollState(t, get, core.StateRunning, 50*time.Millisecond)
	letGo()
	done, err := jm.Wait(context.Background(), job.ID, 10*time.Second)
	if err != nil || done.State != core.StateDone {
		t.Fatalf("job = %+v, %v; want DONE", done, err)
	}

	// Replay a copy of the live data directory: a crash at this instant.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	c2, err := container.New(durableOpts(crash, journal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	deployNative(t, c2, "csum", "committest.sum", false, sumParams.in, sumParams.out)
	if err := c2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Jobs().Get(job.ID)
	if err != nil || got.State != core.StateDone || !reflect.DeepEqual(got.Outputs, done.Outputs) {
		t.Fatalf("recovered job = %+v, %v; want DONE with outputs %v", got, err, done.Outputs)
	}
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chattyAdapter reports progress in a tight loop: from a goroutine that
// outlives Invoke, racing the landing, and from Invoke itself, which
// returns after 300 reports, or runs until its job is cancelled.
type chattyAdapter struct {
	untilCancelled bool
	wg             *sync.WaitGroup
}

func (*chattyAdapter) Kind() string { return "chatty" }

func (a *chattyAdapter) Invoke(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for i := 0; i < 500; i++ {
			req.Progress(fmt.Sprintf("late %d", i))
		}
	}()
	for i := 0; a.untilCancelled || i < 300; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		req.Progress(fmt.Sprintf("step %d", i))
	}
	return &adapter.Result{Outputs: core.Values{"y": 1.0}}, nil
}

// observer checks that the images one reader sees of one job never go
// backwards: the state only advances, the log only grows (keeping what it
// had), and outputs are fixed once DONE.
type observer struct {
	t    *testing.T
	name string
	last *core.Job
	bad  bool
}

func stateRank(s core.JobState) int {
	switch s {
	case core.StateWaiting:
		return 0
	case core.StateRunning:
		return 1
	}
	return 2
}

func (o *observer) see(j *core.Job) {
	if o.bad {
		return
	}
	if p := o.last; p != nil {
		switch {
		case stateRank(j.State) < stateRank(p.State) || p.State.Terminal() && j.State != p.State:
			o.t.Errorf("%s: state went %s -> %s", o.name, p.State, j.State)
		case len(j.Log) < len(p.Log) || !slices.Equal(j.Log[:len(p.Log)], p.Log):
			o.t.Errorf("%s: log went from %d to %d entries, or changed", o.name, len(p.Log), len(j.Log))
		case p.State == core.StateDone && !reflect.DeepEqual(j.Outputs, p.Outputs):
			o.t.Errorf("%s: outputs of a DONE job changed: %v -> %v", o.name, p.Outputs, j.Outputs)
		default:
			o.last = j
			return
		}
		o.bad = true
		return
	}
	o.last = j
}

// TestObservationsNeverGoBackwards races an adapter's progress reports
// against the landing of its job, and against its cancellation, while
// pollers read the job through Get, Wait and ListPage and an SSE watcher
// follows it.  No reader may see the job go backwards, and the watcher's
// event IDs rise with the states.
func TestObservationsNeverGoBackwards(t *testing.T) {
	var late sync.WaitGroup
	reg := adapter.NewRegistry()
	reg.Register("chatty", func(cfg json.RawMessage) (adapter.Interface, error) {
		return &chattyAdapter{untilCancelled: string(cfg) == `"cancel"`, wg: &late}, nil
	})
	c, err := container.New(container.Options{Workers: 2, Adapters: reg, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)
	for _, mode := range []string{"land", "cancel"} {
		if err := c.Deploy(container.ServiceConfig{
			Description: core.ServiceDescription{
				Name:    mode,
				Inputs:  []core.Param{{Name: "x", Optional: true}},
				Outputs: []core.Param{{Name: "y", Optional: true}},
			},
			Adapter: container.AdapterSpec{Kind: "chatty", Config: mustJSON(t, mode)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	jm := c.Jobs()
	ctx := context.Background()

	for round := 0; round < 20; round++ {
		for _, mode := range []string{"land", "cancel"} {
			job, err := jm.Submit(ctx, mode, core.Values{}, container.SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			id := job.ID
			// A reader that never sees the job land fails at the deadline
			// instead of hanging the test.
			deadline := time.Now().Add(10 * time.Second)
			var wg sync.WaitGroup
			poll := func(name string, read func() *core.Job) {
				defer wg.Done()
				o := &observer{t: t, name: fmt.Sprintf("%s %s", mode, name)}
				for extra := 0; extra < 50; {
					if time.Now().After(deadline) {
						t.Errorf("%s: job never seen terminal", o.name)
						return
					}
					j := read()
					o.see(j)
					if j.State.Terminal() {
						extra++
					}
				}
			}
			wg.Add(4)
			go poll("Get", func() *core.Job {
				j, err := jm.Get(id)
				if err != nil {
					t.Error(err)
				}
				return j
			})
			go poll("Wait", func() *core.Job {
				j, err := jm.Wait(ctx, id, time.Millisecond)
				if err != nil {
					t.Error(err)
				}
				return j
			})
			go poll("ListPage", func() *core.Job {
				jobs, _ := jm.ListPage(mode, "", 0, 0)
				for _, j := range jobs {
					if j.ID == id {
						return j
					}
				}
				t.Errorf("job %s missing from its page", id)
				return job
			})
			go func() {
				defer wg.Done()
				sctx, cancel := context.WithDeadline(ctx, deadline)
				defer cancel()
				req, _ := http.NewRequestWithContext(sctx, http.MethodGet, srv.URL+"/services/"+mode+"/jobs/"+id+"/events", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				o := &observer{t: t, name: mode + " SSE"}
				sc := events.NewScanner(resp.Body)
				var lastID uint64
				for {
					ev, err := sc.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					var j core.Job
					if err := json.Unmarshal(ev.Data, &j); err != nil {
						t.Error(err)
						return
					}
					if lastID != 0 && ev.ID <= lastID {
						t.Errorf("%s SSE: event %d after event %d", mode, ev.ID, lastID)
					}
					lastID = ev.ID
					o.see(&j)
				}
				if o.last == nil || !o.last.State.Terminal() {
					t.Errorf("%s SSE: stream ended before the job landed", mode)
				}
			}()
			if mode == "cancel" {
				time.Sleep(5 * time.Millisecond)
				if _, err := jm.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			want := core.StateDone
			if mode == "cancel" {
				want = core.StateCancelled
			}
			if j, _ := jm.Get(id); j.State != want {
				t.Fatalf("%s job landed %s, want %s", mode, j.State, want)
			}
		}
	}
	late.Wait()
}
