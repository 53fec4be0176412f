package container_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
	"mathcloud/internal/obs"
)

// Allocation budgets of the paths every job of the benchmark crosses: one
// server-side Table 1 cycle (submit ?wait=, GET and DELETE of one job
// through Container.APIHandler, adapter and worker included, and the same
// cycle through Container.Handler with its ingress records), one child of
// a width-64 sweep (its share of the submission, its run and its share of
// the purge), with a native function and with the script adapter, and one
// child on a GET of that sweep's child page.  The
// budgets are constants of alloc_budget_test.go, and of
// alloc_budget_race_test.go under the race detector; a change may lower
// them, never raise them.  TestJobGetOneAlloc (root package) pins the
// status poll the same way.

// cycleWriter is a reusable http.ResponseWriter, so the budget counts the
// server's allocations rather than a recorder's.
type cycleWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *cycleWriter) Header() http.Header    { return w.header }
func (w *cycleWriter) WriteHeader(status int) { w.status = status }
func (w *cycleWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *cycleWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
	w.body = w.body[:0]
}

// cycleBody is a rewindable request body.
type cycleBody struct{ bytes.Reader }

func (*cycleBody) Close() error { return nil }

// TestTable1CycleAllocBudget pins the allocations of one Table 1 cycle on
// the server: POST ?wait= until DONE, GET the job, DELETE it.  Requests and
// the response writer are reused, so what is counted is the router, the
// handlers, the JobManager, the worker and the adapter.
func TestTable1CycleAllocBudget(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	deploySweepService(t, c, "cycle", false, &calls)
	allocs := table1CycleAllocs(t, c.APIHandler())
	t.Logf("Table 1 cycle: %.0f allocations (budget %v)", allocs, table1CycleAllocBudget)
	if allocs > table1CycleAllocBudget {
		t.Fatalf("Table 1 cycle allocates %.0f times, budget %v", allocs, table1CycleAllocBudget)
	}
}

// TestTable1IngressCycleAllocBudget is TestTable1CycleAllocBudget through
// Container.Handler(), the servers' handler: the ingress middleware's
// request ID, metrics and Info records (into a discard sink) ride along on
// each of the three requests, and so do the job's own records.
func TestTable1IngressCycleAllocBudget(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	deploySweepService(t, c, "cycle", false, &calls)
	obs.SetLogOutput(io.Discard)
	obs.SetLogLevel(slog.LevelInfo)
	t.Cleanup(func() {
		obs.SetLogLevel(slog.LevelWarn)
		obs.SetLogOutput(nil)
	})
	allocs := table1CycleAllocs(t, c.Handler())
	t.Logf("Table 1 cycle through the ingress: %.0f allocations (budget %v)", allocs, table1IngressCycleAllocBudget)
	if allocs > table1IngressCycleAllocBudget {
		t.Fatalf("Table 1 cycle through the ingress allocates %.0f times, budget %v", allocs, table1IngressCycleAllocBudget)
	}
}

// table1CycleAllocs returns the allocations of one Table 1 cycle through h
// on the service "cycle".
func table1CycleAllocs(t *testing.T, h http.Handler) float64 {
	t.Helper()
	payload := []byte(`{"x":1}`)
	body := &cycleBody{}
	post := httptest.NewRequest(http.MethodPost, "/services/cycle?wait=10s", nil)
	get := httptest.NewRequest(http.MethodGet, "/", nil)
	del := httptest.NewRequest(http.MethodDelete, "/", nil)
	w := &cycleWriter{header: http.Header{}}
	cycle := func() {
		body.Reset(payload)
		post.Body = body
		w.reset()
		h.ServeHTTP(w, post)
		if w.status != http.StatusCreated || !bytes.Contains(w.body, []byte(`"state":"DONE"`)) {
			t.Fatalf("submit: %d %s", w.status, w.body)
		}
		loc := w.header.Get("Location")
		path := loc[strings.Index(loc, "/services/"):]
		for _, r := range []*http.Request{get, del} {
			r.URL.Path = path
			w.reset()
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				t.Fatalf("%s %s: %d %s", r.Method, path, w.status, w.body)
			}
		}
	}
	return testing.AllocsPerRun(1000, cycle)
}

// TestSweepChildAllocBudget pins the allocations per child of a width-64
// sweep: submit, run every child to DONE, wait, then destroy the campaign.
func TestSweepChildAllocBudget(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	deploySweepService(t, c, "childcost", false, &calls)
	perChild := sweepChildAllocs(t, c, "childcost")
	t.Logf("sweep child: %.3f allocations (budget %v)", perChild, sweepChildAllocBudget)
	if perChild > sweepChildAllocBudget {
		t.Fatalf("a sweep child allocates %.3f times, budget %v", perChild, sweepChildAllocBudget)
	}
}

// TestScriptSweepChildAllocBudget is TestSweepChildAllocBudget on the
// benchmark's inc service, whose script adapter runs `out.y = in.x + 1`:
// the interpreter's share of every non-file benchmark job.
func TestScriptSweepChildAllocBudget(t *testing.T) {
	c := newMemoContainer(t, container.Options{Workers: 2})
	num := jsonschema.New(jsonschema.TypeNumber)
	err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "inc",
			Inputs:  []core.Param{{Name: "x", Schema: num}},
			Outputs: []core.Param{{Name: "y", Schema: num}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "script",
			Config: mustJSON(t, adapter.ScriptConfig{Script: "out.y = in.x + 1"}),
		},
	})
	if err != nil {
		t.Fatalf("Deploy inc: %v", err)
	}
	perChild := sweepChildAllocs(t, c, "inc")
	t.Logf("script sweep child: %.3f allocations (budget %v)", perChild, scriptSweepChildAllocBudget)
	if perChild > scriptSweepChildAllocBudget {
		t.Fatalf("a script sweep child allocates %.3f times, budget %v", perChild, scriptSweepChildAllocBudget)
	}
}

// sweepChildAllocs returns the allocations per child of width-64 sweeps
// over the input x of service.
func sweepChildAllocs(t *testing.T, c *container.Container, service string) float64 {
	t.Helper()
	jm := c.Jobs()
	const width = 64
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i)
	}
	spec := &core.SweepSpec{Axes: map[string][]any{"x": axis}}
	ctx := context.Background()
	campaign := func() {
		sw, err := jm.SubmitSweep(ctx, service, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		done, err := jm.WaitSweep(ctx, sw.ID, 10*time.Second)
		if err != nil || done.Counts.Done != width {
			t.Fatalf("sweep: %+v (err=%v)", done, err)
		}
		if _, err := jm.DeleteSweep(sw.ID); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, campaign) / width
}

// TestSweepPageAllocBudget pins the allocations per child of a GET of a
// width-64 sweep's child page through APIHandler: the page encodes the
// children's shared snapshots, so its cost is the handler's and the
// buffer's, not a copy per child.
func TestSweepPageAllocBudget(t *testing.T) {
	var calls atomic.Int64
	c := newMemoContainer(t, container.Options{Workers: 2})
	c.SetBaseURL("http://127.0.0.1:8080")
	deploySweepService(t, c, "pagecost", false, &calls)

	const width = 64
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i)
	}
	ctx := context.Background()
	sw, err := c.Jobs().SubmitSweep(ctx, "pagecost", &core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Jobs().WaitSweep(ctx, sw.ID, 10*time.Second); err != nil || done.Counts.Done != width {
		t.Fatalf("sweep: %+v (err=%v)", done, err)
	}
	h := c.APIHandler()
	get := httptest.NewRequest(http.MethodGet, "/services/pagecost/sweeps/"+sw.ID+"/jobs", nil)
	w := &cycleWriter{header: http.Header{}}
	page := func() {
		w.reset()
		h.ServeHTTP(w, get)
		if w.status != http.StatusOK || bytes.Count(w.body, []byte(`"state":"DONE"`)) != width {
			t.Fatalf("GET page: %d %.200s", w.status, w.body)
		}
	}
	perChild := testing.AllocsPerRun(100, page) / width
	t.Logf("sweep page: %.3f allocations per child (budget %v)", perChild, sweepPageAllocBudget)
	if perChild > sweepPageAllocBudget {
		t.Fatalf("a sweep page allocates %.3f times per child, budget %v", perChild, sweepPageAllocBudget)
	}
}
