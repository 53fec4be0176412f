// Control-plane benchmarks (DESIGN.md §5c): job-status polling under
// concurrency, service-description GETs (full and conditional), and
// catalogue availability sweeps.  They exercise only public APIs, so the
// same file measures the pre- and post-optimisation trees; both runs are
// recorded in BENCH_3.json.
package mathcloud_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/catalogue"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
)

// newBenchContainer starts a bare container (no HTTP listener) with a noop
// service whose jobs carry a realistic payload: several inputs and one
// output, so job snapshots are not trivially empty.
func newBenchContainer(b *testing.B, workers int) *container.Container {
	b.Helper()
	adapter.RegisterFunc("bench.noop", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"y": 1.0}, nil
	})
	c, err := container.New(container.Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	inputs := make([]core.Param, 8)
	for i := range inputs {
		inputs[i] = core.Param{Name: fmt.Sprintf("p%d", i), Optional: true}
	}
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "noop",
			Inputs:  inputs,
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"bench.noop"}`)},
	}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkJobStatusContention hammers JobManager.Get from 8 concurrent
// goroutines over a populated registry — the status-polling hot path of the
// Table 1 job resource.  The pre-PR registry serializes every lookup on one
// global mutex and deep-clones the job record per poll; the sharded registry
// with cached immutable snapshots answers from a lock-striped map and a
// shallow copy.
func BenchmarkJobStatusContention(b *testing.B) {
	c := newBenchContainer(b, 4)
	jm := c.Jobs()
	inputs := core.Values{}
	for i := 0; i < 8; i++ {
		inputs[fmt.Sprintf("p%d", i)] = float64(i)
	}
	const jobs = 256
	ids := make([]string, jobs)
	ctx := context.Background()
	for i := range ids {
		job, err := jm.Submit(context.Background(), "noop", inputs, container.SubmitOptions{Owner: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		if j, err := jm.Wait(ctx, id, 10*time.Second); err != nil || !j.State.Terminal() {
			b.Fatalf("job %s not terminal (err=%v)", id, err)
		}
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			job, err := jm.Get(ids[i%jobs])
			if err != nil {
				b.Fatal(err)
			}
			if job.State != core.StateDone {
				b.Fatalf("state = %s", job.State)
			}
			i++
		}
	})
}

// TestJobGetOneAlloc pins the allocation budget of the status-polling hot
// path: JobManager.Get returns the job's published image itself, so a poll
// allocates nothing, timeline fields (queue wait, run time, trace ID)
// included.
func TestJobGetOneAlloc(t *testing.T) {
	adapter.RegisterFunc("bench.noop", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"y": 1.0}, nil
	})
	c, err := container.New(container.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "noop",
			Inputs:  []core.Param{{Name: "x", Optional: true}},
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"bench.noop"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	jm := c.Jobs()
	job, err := jm.Submit(context.Background(), "noop", core.Values{"x": 1.0}, container.SubmitOptions{Owner: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := jm.Wait(context.Background(), job.ID, 10*time.Second)
	if err != nil || done.State != core.StateDone {
		t.Fatalf("job not done: %+v (err=%v)", done, err)
	}
	// Warm up once so lazily built state does not count against the budget.
	if _, err := jm.Get(job.ID); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		j, err := jm.Get(job.ID)
		if err != nil || j.State != core.StateDone {
			t.Fatalf("get: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("JobManager.Get allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkDescriptionGET measures serving the service-description resource
// through the container handler: an unconditional GET (full representation)
// and a conditional GET carrying If-None-Match.  Pre-PR both re-encode the
// description per request; post-PR the full GET answers from precomputed
// immutable bytes and the conditional GET collapses to a 304.
func BenchmarkDescriptionGET(b *testing.B) {
	c := newBenchContainer(b, 1)
	c.SetBaseURL("http://bench.local")
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:        "rich",
			Title:       "Richly described service",
			Description: strings.Repeat("A service with a long description. ", 8),
			Inputs: []core.Param{
				{Name: "matrix", Title: "Input matrix",
					Schema: jsonschema.MustParse(`{"type":"string","format":"matrix"}`)},
				{Name: "order", Title: "Matrix order",
					Schema: jsonschema.MustParse(`{"type":"integer","minimum":1,"maximum":4096}`)},
				{Name: "mode", Schema: jsonschema.MustParse(`{"type":"string","enum":["exact","float"]}`)},
			},
			Outputs: []core.Param{
				{Name: "inverse", Schema: jsonschema.MustParse(`{"type":"string","format":"matrix"}`)},
				{Name: "elapsed", Schema: jsonschema.MustParse(`{"type":"number"}`)},
			},
			Tags: []string{"linear-algebra", "exact", "bench"},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"bench.noop"}`)},
	}); err != nil {
		b.Fatal(err)
	}
	h := c.Handler()
	prime := httptest.NewRecorder()
	h.ServeHTTP(prime, httptest.NewRequest(http.MethodGet, "/services/rich", nil))
	if prime.Code != http.StatusOK {
		b.Fatalf("prime GET: %d", prime.Code)
	}
	etag := prime.Header().Get("ETag")

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/services/rich", nil))
			if w.Code != http.StatusOK {
				b.Fatalf("GET: %d", w.Code)
			}
		}
	})
	b.Run("conditional", func(b *testing.B) {
		if etag == "" {
			// Pre-PR trees serve no ETag; the conditional request is then
			// identical to the full one, which is exactly the baseline.
			etag = `"absent"`
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodGet, "/services/rich", nil)
			r.Header.Set("If-None-Match", etag)
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK && w.Code != http.StatusNotModified {
				b.Fatalf("GET: %d", w.Code)
			}
		}
	})
}

// slowDescriber answers Describe after a fixed delay, modelling the network
// round-trip of a catalogue availability probe.
type slowDescriber struct {
	delay time.Duration
}

// Describe implements catalogue.Describer.
func (d slowDescriber) Describe(ctx context.Context, uri string) (core.ServiceDescription, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return core.ServiceDescription{}, ctx.Err()
	}
	return core.ServiceDescription{Name: uri, Description: "probed service"}, nil
}

// BenchmarkCatalogueSweep measures one full availability sweep over a
// 64-service catalogue whose probes each take ~500µs — the paper's periodic
// ping loop.  Pre-PR the sweep is strictly serial (sum of probe latencies);
// post-PR a bounded worker pool overlaps the waits.
func BenchmarkCatalogueSweep(b *testing.B) {
	cat := catalogue.New(slowDescriber{delay: 500 * time.Microsecond})
	ctx := context.Background()
	const services = 64
	for i := 0; i < services; i++ {
		if _, err := cat.Register(ctx, fmt.Sprintf("http://host%d/services/s%d", i, i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := cat.Ping(ctx); n != services {
			b.Fatalf("available = %d", n)
		}
	}
}

// BenchmarkCatalogueTopK measures a limit-10 search over a catalogue where
// every document matches the query: pre-PR the index fully sorts all hits,
// post-PR a top-k partial sort keeps only the requested page.
func BenchmarkCatalogueTopK(b *testing.B) {
	const n = 2000
	docs := make(map[string]string, n)
	for i := 0; i < n; i++ {
		docs[fmt.Sprintf("http://host/services/s%d", i)] = fmt.Sprintf(
			"matrix solver number %d with %s depth", i, strings.Repeat("deep ", i%17))
	}
	cat := catalogue.New(benchDescriber(docs))
	ctx := context.Background()
	for uri := range docs {
		if _, err := cat.Register(ctx, uri, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cat.Search("matrix solver", catalogue.SearchOptions{Limit: 10}); len(res) != 10 {
			b.Fatalf("hits = %d", len(res))
		}
	}
}
