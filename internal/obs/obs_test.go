package obs

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_requests_total", "requests")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("t_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	h := r.Histogram("t_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	// p50 lands in the (0.1, 1] bucket, p99 in the overflow bucket which
	// clamps to the last finite bound.
	if q := h.Quantile(0.5); q <= 0.1 || q > 1 {
		t.Fatalf("p50 = %v, want in (0.1, 1]", q)
	}
	if q := h.Quantile(0.99); q != 10 {
		t.Fatalf("p99 = %v, want clamp to 10", q)
	}
}

func TestVecChildrenAreShared(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_http_total", "by route", "route", "code")
	v.With("job", "2xx").Inc()
	v.With("job", "2xx").Inc()
	v.With("job", "5xx").Inc()
	if got := v.With("job", "2xx").Value(); got != 2 {
		t.Fatalf("child = %v, want 2", got)
	}
	if got := v.With("job", "5xx").Value(); got != 1 {
		t.Fatalf("child = %v, want 1", got)
	}
}

func TestReRegistrationReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_shared_total", "shared")
	b := r.Counter("t_shared_total", "shared")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("shared counter = %v, want 2", got)
	}
}

func TestPrometheusExpositionValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_jobs_total", "total jobs").Add(4)
	r.Gauge("t_queue_depth", "queue depth").Set(2)
	v := r.HistogramVec("t_req_seconds", "request latency", []float64{0.01, 0.1, 1}, "route")
	v.With("job").Observe(0.05)
	v.With("job").Observe(0.5)
	v.With(`we"ird\`).Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE t_jobs_total counter",
		"t_jobs_total 4",
		"# TYPE t_req_seconds histogram",
		`t_req_seconds_bucket{route="job",le="0.1"} 1`,
		`t_req_seconds_bucket{route="job",le="+Inf"} 2`,
		`t_req_seconds_count{route="job"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("ValidateExposition: %v\n%s", err, out)
	}
}

func TestValidatorRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "t_x 1\n",
		"bad value":          "# TYPE t_x counter\nt_x abc\n",
		"bad name":           "# TYPE 9x counter\n9x 1\n",
		"duplicate series":   "# TYPE t_x counter\nt_x 1\nt_x 2\n",
		"unterminated block": "# TYPE t_x counter\nt_x{a=\"b\" 1\n",
		"histogram no +Inf": "# TYPE t_h histogram\n" +
			"t_h_bucket{le=\"1\"} 1\nt_h_sum 1\nt_h_count 1\n",
		"histogram count mismatch": "# TYPE t_h histogram\n" +
			"t_h_bucket{le=\"1\"} 1\nt_h_bucket{le=\"+Inf\"} 2\nt_h_sum 1\nt_h_count 3\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted malformed document:\n%s", name, doc)
		}
	}
}

func TestStatusSnapshotPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_run_seconds", "run time", []float64{0.1, 1, 10})
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	st := r.Snapshot()
	hs, ok := st.Histograms["t_run_seconds"]
	if !ok {
		t.Fatalf("snapshot missing histogram: %+v", st)
	}
	if hs.Count != 100 {
		t.Fatalf("count = %d", hs.Count)
	}
	if hs.P50 <= 0.1 || hs.P50 > 1 {
		t.Fatalf("p50 = %v, want in (0.1, 1]", hs.P50)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", st.UptimeSeconds)
	}
}

func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_h_total", "handled").Inc()
	mw := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	if mw.Code != 200 || !strings.Contains(mw.Body.String(), "t_h_total 1") {
		t.Fatalf("metrics handler: %d %q", mw.Code, mw.Body.String())
	}
	sw := httptest.NewRecorder()
	r.StatusHandler().ServeHTTP(sw, httptest.NewRequest("GET", "/status", nil))
	if sw.Code != 200 || !strings.Contains(sw.Body.String(), `"t_h_total": 1`) {
		t.Fatalf("status handler: %d %q", sw.Code, sw.Body.String())
	}
	bad := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(bad, httptest.NewRequest("POST", "/metrics", nil))
	if bad.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", bad.Code)
	}
}

func TestConcurrentUpdatesAndExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_conc_total", "concurrent")
	h := r.HistogramVec("t_conc_seconds", "concurrent", []float64{0.01, 0.1, 1}, "route")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			route := []string{"a", "b", "c"}[i%3]
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.With(route).Observe(float64(j%100) / 100)
			}
		}(i)
	}
	// Scrape concurrently with the writers; the exposition must stay
	// well-formed mid-flight.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				r.WritePrometheus(&b)
				if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
					t.Errorf("mid-flight exposition invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := RequestIDFrom(ctx); ok {
		t.Fatal("empty context reported a request ID")
	}
	ctx, id := EnsureRequestID(ctx)
	if len(id) != 16 {
		t.Fatalf("id = %q, want 16 hex digits", id)
	}
	if got, ok := RequestIDFrom(ctx); !ok || got != id {
		t.Fatalf("round trip: %q %v", got, ok)
	}
	ctx2, id2 := EnsureRequestID(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("EnsureRequestID regenerated an existing ID")
	}
}

func TestRequestIDKeyIsCanonical(t *testing.T) {
	if got := http.CanonicalHeaderKey(RequestIDHeader); got != RequestIDKey {
		t.Fatalf("RequestIDKey = %q, net/http keys %q as %q", RequestIDKey, RequestIDHeader, got)
	}
}

func TestDisabledRecordingIsNoop(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_off_total", "off")
	h := r.Histogram("t_off_seconds", "off", []float64{1})
	SetEnabled(false)
	defer SetEnabled(true)
	c.Inc()
	h.Observe(0.5)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled recording still counted: %v %d", c.Value(), h.Count())
	}
}

// readFromRecorder is a ResponseWriter with a ReadFrom of its own, like
// the server's connection writer.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	readFrom bool
}

func (w *readFromRecorder) ReadFrom(r io.Reader) (int64, error) {
	w.readFrom = true
	return io.Copy(w.ResponseRecorder, r)
}

// TestIngressWriterForwardsReadFrom: a copy into the instrumented writer
// reaches the wrapped writer's ReadFrom (the sendfile path of a file
// download), and http.ResponseController reaches the wrapped writer.
func TestIngressWriterForwardsReadFrom(t *testing.T) {
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// http.ServeContent copies a file with io.CopyN.
		if _, err := io.CopyN(w, strings.NewReader("payload"), 7); err != nil {
			t.Error(err)
		}
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush: %v", err)
		}
	}))
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/files/x", nil))
	if !rec.readFrom || rec.Body.String() != "payload" || !rec.Flushed {
		t.Fatalf("ReadFrom forwarded %v, body %q, flushed %v", rec.readFrom, rec.Body.String(), rec.Flushed)
	}
}

// TestIngressContext: the ingress is the request's context.  It answers
// the request ID, every other key from the context it wraps, and lets the
// context package find the cancelable parent, so contexts derived from it
// are cancelled with the request without a propagation goroutine each.
func TestIngressContext(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "parent's"))
	req := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(parent)
	req.Header.Set(RequestIDHeader, "4f1c2a9e0b7d3c56")
	var children []context.Context
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	var grew int
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if id, ok := RequestIDFrom(ctx); !ok || id != "4f1c2a9e0b7d3c56" {
			t.Errorf("RequestIDFrom = %q, %v", id, ok)
		}
		if v := ctx.Value(key{}); v != "parent's" {
			t.Errorf("a parent's key answered %v", v)
		}
		if id, ok := RequestIDFrom(WithRequestID(ctx, "inner")); !ok || id != "inner" {
			t.Errorf("an ID set below the ingress answered %q, %v", id, ok)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			child, cancelChild := context.WithCancel(ctx)
			children, cancels = append(children, child), append(cancels, cancelChild)
		}
		grew = runtime.NumGoroutine() - before
	}))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if grew >= 50 {
		t.Fatalf("100 contexts derived from the ingress started %d goroutines", grew)
	}
	cancel()
	for i, c := range children {
		select {
		case <-c.Done():
		case <-time.After(time.Second):
			t.Fatalf("child %d was not cancelled with the request", i)
		}
	}
}
