// Observability-overhead benchmarks (DESIGN.md §5d): the instrumented hot
// paths — job status GET and file GET through the container handler — with
// metric recording enabled versus disabled (obs.SetEnabled).  The ablation
// quantifies what the metrics plane costs on the paths the control-plane
// benchmarks optimised; both modes are recorded in BENCH_4.json and must
// stay within a few percent of each other.
package mathcloud_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// newObsBenchContainer starts a container with one finished job and one
// stored file, returning the handler plus the two hot-path URLs.
func newObsBenchContainer(b *testing.B) (http.Handler, string, string) {
	b.Helper()
	adapter.RegisterFunc("bench.obsnoop", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"y": 1.0}, nil
	})
	c, err := container.New(container.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "noop",
			Inputs:  []core.Param{{Name: "x", Optional: true}},
			Outputs: []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"bench.obsnoop"}`)},
	}); err != nil {
		b.Fatal(err)
	}
	job, err := c.Jobs().Submit(context.Background(), "noop", core.Values{"x": 1.0}, container.SubmitOptions{Owner: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	if j, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second); err != nil || !j.State.Terminal() {
		b.Fatalf("job not terminal (err=%v)", err)
	}
	fileID, err := c.Files().Put(strings.NewReader(strings.Repeat("x", 4096)), "")
	if err != nil {
		b.Fatal(err)
	}
	return c.Handler(), "/services/noop/jobs/" + job.ID, "/files/" + fileID
}

// benchHandlerGet drives GET requests for path through the handler with the
// metrics plane toggled per sub-benchmark.
func benchHandlerGet(b *testing.B, path string, wantCode int) {
	h, jobURL, fileURL := newObsBenchContainer(b)
	url := jobURL
	if path == "file" {
		url = fileURL
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"instrumented", true}, {"disabled", false}} {
		b.Run(mode.name, func(b *testing.B) {
			obs.SetEnabled(mode.enabled)
			defer obs.SetEnabled(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
				if w.Code != wantCode {
					b.Fatalf("GET %s = %d", url, w.Code)
				}
			}
		})
	}
}

// BenchmarkObsOverheadJobGet measures the job status poll — the highest-rate
// request of the platform — with and without metric recording.
func BenchmarkObsOverheadJobGet(b *testing.B) {
	benchHandlerGet(b, "job", http.StatusOK)
}

// BenchmarkObsOverheadFileGet measures the 4 KiB file download path with and
// without metric recording.
func BenchmarkObsOverheadFileGet(b *testing.B) {
	benchHandlerGet(b, "file", http.StatusOK)
}
