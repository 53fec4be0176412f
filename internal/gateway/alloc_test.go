package gateway_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/obs"
)

// The allocation budget of one routed submit, a constant of
// alloc_budget_test.go and, under the race detector, of
// alloc_budget_race_test.go; a change may lower it, never raise it.

// submitWriter is a reusable http.ResponseWriter, so the budget counts the
// gateway's allocations rather than a recorder's.
type submitWriter struct {
	header http.Header
	status int
}

func (w *submitWriter) Header() http.Header         { return w.header }
func (w *submitWriter) WriteHeader(status int)      { w.status = status }
func (w *submitWriter) Write(b []byte) (int, error) { return len(b), nil }

// submitBody is a rewindable request body.
type submitBody struct{ bytes.Reader }

func (*submitBody) Close() error { return nil }

// TestRoutedSubmitAllocBudget pins the allocations of one submit a client
// asks to be routed, through Gateway.Handler(): the ingress middleware with
// its Info record (into a discard sink), the route match, the body read,
// placement and the 307.  The request carries its request ID, as the Go
// client's do.  The request and the response writer are reused.
func TestRoutedSubmitAllocBudget(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	g, _ := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)
	h := g.Handler()
	obs.SetLogOutput(io.Discard)
	obs.SetLogLevel(slog.LevelInfo)
	t.Cleanup(func() {
		obs.SetLogLevel(slog.LevelWarn)
		obs.SetLogOutput(nil)
	})

	payload := []byte(`{"a":1,"b":2}`)
	body := &submitBody{}
	post := httptest.NewRequest(http.MethodPost, "/services/add?wait=10s", nil)
	post.Header.Set("Prefer", core.RoutePreference)
	post.Header.Set("Content-Type", "application/json")
	post.Header.Set(obs.RequestIDHeader, "4f1c2a9e0b7d3c56") // as every Go client sends one
	post.ContentLength = int64(len(payload))
	w := &submitWriter{header: http.Header{}}
	submit := func() {
		body.Reset(payload)
		post.Body = body
		clear(w.header)
		w.status = http.StatusOK
		h.ServeHTTP(w, post)
		if w.status != http.StatusTemporaryRedirect {
			t.Fatalf("routed submit: status %d, want 307", w.status)
		}
	}
	allocs := testing.AllocsPerRun(1000, submit)
	t.Logf("routed submit: %.0f allocations (budget %v)", allocs, routedSubmitAllocBudget)
	if allocs > routedSubmitAllocBudget {
		t.Fatalf("a routed submit allocates %.0f times, budget %v", allocs, routedSubmitAllocBudget)
	}
}
