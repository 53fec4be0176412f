package container_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/scatter"
)

// startSweepContainer brings up a container with a batch-capable doubling
// service behind a real listener.
func startSweepContainer(t *testing.T, opts container.Options) (*container.Container, *httptest.Server) {
	t.Helper()
	adapter.RegisterFunc("sweepe2e.double", func(_ context.Context, in core.Values) (core.Values, error) {
		x, _ := in["x"].(float64)
		return core.Values{"y": 2 * x}, nil
	})
	adapter.RegisterBatchFunc("sweepe2e.double", func(_ context.Context, batch []core.Values) ([]core.Values, []error) {
		outs := make([]core.Values, len(batch))
		errs := make([]error, len(batch))
		for i, in := range batch {
			x, _ := in["x"].(float64)
			outs[i] = core.Values{"y": 2 * x}
		}
		return outs, errs
	})
	opts.Logger = quietLogger()
	c, err := container.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "double", Version: "1", Batch: true,
			Inputs:  []core.Param{{Name: "x"}},
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"sweepe2e.double"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)
	return c, srv
}

// TestSweepOverHTTP drives the sweep resource end to end through the REST
// API: submit, aggregate status, child pages, delete.
func TestSweepOverHTTP(t *testing.T) {
	_, srv := startSweepContainer(t, container.Options{Workers: 2})

	body := `{"axes":{"x":[1,2,3,4,5,6]}}`
	resp, err := http.Post(srv.URL+"/services/double/sweeps?wait=10s",
		"application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST sweeps = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("no Location header on sweep creation")
	}
	var sweep core.Sweep
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Width != 6 || sweep.URI == "" || sweep.JobsURI != sweep.URI+"/jobs" {
		t.Fatalf("sweep representation: %+v", sweep)
	}
	if sweep.State != core.StateDone || sweep.Counts.Done != 6 {
		t.Fatalf("synchronous sweep not finished: %s %+v", sweep.State, sweep.Counts)
	}

	// The status resource answers at its Location.
	var again core.Sweep
	mustGetJSON(t, loc, &again)
	if again.ID != sweep.ID || again.Counts != sweep.Counts {
		t.Fatalf("GET %s = %+v", loc, again)
	}

	// Child pages in point order, with totals.
	var page struct {
		Jobs  []*core.Job `json:"jobs"`
		Total int         `json:"total"`
	}
	mustGetJSON(t, sweep.JobsURI+"?state=DONE&limit=2&offset=2", &page)
	if page.Total != 6 || len(page.Jobs) != 2 {
		t.Fatalf("child page: total=%d len=%d", page.Total, len(page.Jobs))
	}
	if page.Jobs[0].Inputs["x"] != 3.0 || page.Jobs[1].Inputs["x"] != 4.0 {
		t.Fatalf("page out of order: %v %v", page.Jobs[0].Inputs, page.Jobs[1].Inputs)
	}

	// Bad state filters are rejected.
	if code := getStatus(t, sweep.JobsURI+"?state=BOGUS"); code != http.StatusBadRequest {
		t.Fatalf("bogus state filter = %d, want 400", code)
	}
	// The sweep belongs to its service's namespace only.
	if code := getStatus(t, srv.URL+"/services/nosuch/sweeps/"+sweep.ID); code != http.StatusNotFound {
		t.Fatalf("cross-service sweep GET = %d, want 404", code)
	}

	// DELETE destroys the finished sweep and its children.
	req, _ := http.NewRequest(http.MethodDelete, loc, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE sweep = %d", dresp.StatusCode)
	}
	if code := getStatus(t, loc); code != http.StatusNotFound {
		t.Fatalf("GET deleted sweep = %d, want 404", code)
	}
}

// TestJobListStateFilterAndPagination covers the satellite on the plain job
// collection: state filter plus limit/offset paging.
func TestJobListStateFilterAndPagination(t *testing.T) {
	c, srv := startSweepContainer(t, container.Options{Workers: 2})

	for i := 0; i < 5; i++ {
		job, err := c.Jobs().Submit(context.Background(), "double", core.Values{"x": float64(i)}, container.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, job.ID)
	}

	var page struct {
		Jobs  []*core.Job `json:"jobs"`
		Total int         `json:"total"`
		Limit int         `json:"limit"`
	}
	mustGetJSON(t, srv.URL+"/services/double/jobs?state=DONE&limit=2&offset=1", &page)
	if page.Total != 5 || len(page.Jobs) != 2 || page.Limit != 2 {
		t.Fatalf("filtered page: total=%d len=%d limit=%d", page.Total, len(page.Jobs), page.Limit)
	}
	mustGetJSON(t, srv.URL+"/services/double/jobs?state=ERROR", &page)
	if page.Total != 0 || len(page.Jobs) != 0 {
		t.Fatalf("ERROR filter matched %d", page.Total)
	}
	// Offset past the end yields an empty page with the true total.
	mustGetJSON(t, srv.URL+"/services/double/jobs?limit=10&offset=50", &page)
	if page.Total != 5 || len(page.Jobs) != 0 {
		t.Fatalf("past-end page: total=%d len=%d", page.Total, len(page.Jobs))
	}
	for _, bad := range []string{"?state=nope&", "?limit=x&", "?offset=-1&"} {
		if code := getStatus(t, srv.URL+"/services/double/jobs"+bad); code != http.StatusBadRequest {
			t.Fatalf("GET jobs%s = %d, want 400", bad, code)
		}
	}
}

// TestSweepMetricsE2E asserts the campaign observability series over a real
// /metrics scrape: sweep submissions, terminal children by state, batch
// size samples, and the active gauge returning to rest.
func TestSweepMetricsE2E(t *testing.T) {
	c, srv := startSweepContainer(t, container.Options{Workers: 2, BatchMaxSize: 8})
	before := scrapeMetrics(t, srv.URL)

	const width = 24
	axis := make([]any, width)
	for i := range axis {
		axis[i] = float64(i)
	}
	sweep, err := c.Jobs().SubmitSweep(context.Background(), "double",
		&core.SweepSpec{Axes: map[string][]any{"x": axis}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, c, sweep.ID)

	after := scrapeMetrics(t, srv.URL)
	// The registry is process-wide, so assert deltas, not absolutes.
	// A point that a worker picks up with an empty queue behind it runs
	// through the single-job path and is not a batch sample, so the batch
	// histogram bounds are a majority, not the full width.
	deltas := map[string]float64{
		"mc_sweeps_submitted_total":             1,
		`mc_sweep_children_total{state="done"}`: width,
		"mc_batch_size_count":                   1,
		"mc_batch_size_sum":                     width / 2,
		`mc_http_requests_total{route="metrics",method="GET",code="2xx"}`: 1,
	}
	for series, want := range deltas {
		if got := after[series] - before[series]; got < want {
			t.Errorf("%s grew by %v, want >= %v", series, got, want)
		}
	}
	if after[`mc_batch_size_bucket{le="+Inf"}`] < 1 {
		t.Error("mc_batch_size has empty buckets")
	}
	// Every child is terminal: the active gauge must be back where it was.
	if d := after["mc_sweep_active"] - before["mc_sweep_active"]; d != 0 {
		t.Errorf("mc_sweep_active leaked by %v", d)
	}
	if _, ok := after["mc_sweep_active"]; !ok {
		t.Error("mc_sweep_active not exposed")
	}
}

// TestCampaignSweepSmoke is the CI campaign smoke: a width-256 scattering
// campaign against the built-in simulator, submitted and awaited through
// the client library. CI runs it under -race.
func TestCampaignSweepSmoke(t *testing.T) {
	scatter.RegisterFuncs()
	c, err := container.New(container.Options{
		Workers:      4,
		Logger:       quietLogger(),
		BatchMaxSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(scatter.CurveServiceConfig("curve")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)

	// One shared q grid in the template; 256 structure geometries on the
	// axis — the shape of the paper's diffractometry fit.
	const width = 256
	q := make([]any, 32)
	for i := range q {
		q[i] = 0.05 + 0.01*float64(i)
	}
	structures := make([]any, width)
	for i := range structures {
		structures[i] = map[string]any{
			"class": "sphere",
			"r":     1.0 + 0.01*float64(i),
		}
	}
	svc := client.New().Service(srv.URL + "/services/curve")
	sweep, err := svc.SubmitSweep(context.Background(), &core.SweepSpec{
		Template: core.Values{"q": q, "samples": 24.0},
		Axes:     map[string][]any{"structure": structures},
	}, 0)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if sweep.Width != width {
		t.Fatalf("width = %d", sweep.Width)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done, err := svc.WaitSweep(ctx, sweep.URI)
	if err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	if done.State != core.StateDone || done.Counts.Done != width {
		t.Fatalf("campaign finished %s with %+v (first error: %s)",
			done.State, done.Counts, done.FirstError)
	}
	// Spot-check a page of results: every curve sampled on the shared grid.
	jobs, total, err := svc.SweepJobs(context.Background(), sweep.URI, core.StateDone, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if total != width || len(jobs) != 8 {
		t.Fatalf("result page: total=%d len=%d", total, len(jobs))
	}
	for _, j := range jobs {
		curve, ok := j.Outputs["curve"].([]any)
		if !ok || len(curve) != len(q) {
			t.Fatalf("job %s curve = %T len %d, want %d samples", j.ID, j.Outputs["curve"], len(curve), len(q))
		}
	}
}

func mustGetJSON(t *testing.T, uri string, out any) {
	t.Helper()
	resp, err := http.Get(uri)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", uri, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", uri, err)
	}
}

func getStatus(t *testing.T, uri string) int {
	t.Helper()
	resp, err := http.Get(uri)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
