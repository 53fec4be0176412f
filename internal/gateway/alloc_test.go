package gateway_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/obs"
)

// The allocation budgets of one routed submit, without and with a spread
// lease on its 307, and of one routed upload granting a lease, are constants of alloc_budget_test.go and, under the
// race detector, of alloc_budget_race_test.go; a change may lower them,
// never raise them.

// submitWriter is a reusable http.ResponseWriter, so the budget counts the
// gateway's allocations rather than a recorder's.  Like the server's own
// writer it flushes and sets read deadlines (http.ResponseController).
type submitWriter struct {
	header http.Header
	status int
}

func (w *submitWriter) Header() http.Header             { return w.header }
func (w *submitWriter) WriteHeader(status int)          { w.status = status }
func (w *submitWriter) Write(b []byte) (int, error)     { return len(b), nil }
func (w *submitWriter) FlushError() error               { return nil }
func (w *submitWriter) SetReadDeadline(time.Time) error { return nil }

// submitBody is a rewindable request body.
type submitBody struct{ bytes.Reader }

func (*submitBody) Close() error { return nil }

// TestRoutedSubmitAllocBudget pins the allocations of one submit a client
// asks to be routed, through Gateway.Handler(): the ingress middleware with
// its Info record (into a discard sink), the route match, the body read,
// placement and the 307.  The request carries its request ID, as the Go
// client's do.  The request and the response writer are reused.  Load
// polling is off, so the 307 grants no spread lease.
func TestRoutedSubmitAllocBudget(t *testing.T) {
	allocs := routedAllocs(t, gateway.Options{LoadInterval: -1}, "/services/add?wait=10s", false)
	t.Logf("routed submit: %.0f allocations (budget %v)", allocs, routedSubmitAllocBudget)
	if allocs > routedSubmitAllocBudget {
		t.Fatalf("a routed submit allocates %.0f times, budget %v", allocs, routedSubmitAllocBudget)
	}
}

// TestLeasingSubmitAllocBudget is TestRoutedSubmitAllocBudget with load
// polling on, so the 307 also grants the service's spread lease, whose
// header value the candidate cache built once.
func TestLeasingSubmitAllocBudget(t *testing.T) {
	allocs := routedAllocs(t, gateway.Options{LoadInterval: time.Hour}, "/services/add?wait=10s", true)
	t.Logf("leasing submit: %.0f allocations (budget %v)", allocs, leasingSubmitAllocBudget)
	if allocs > leasingSubmitAllocBudget {
		t.Fatalf("a submit whose 307 grants a lease allocates %.0f times, budget %v", allocs, leasingSubmitAllocBudget)
	}
}

// TestLeasingUploadAllocBudget is TestLeasingSubmitAllocBudget for an
// upload: its 307 is answered before the body is read and grants the
// uploads' lease, whose header value the uploads' candidate entry built
// once.
func TestLeasingUploadAllocBudget(t *testing.T) {
	allocs := routedAllocs(t, gateway.Options{LoadInterval: time.Hour}, "/files", true)
	t.Logf("leasing upload: %.0f allocations (budget %v)", allocs, leasingUploadAllocBudget)
	if allocs > leasingUploadAllocBudget {
		t.Fatalf("an upload whose 307 grants a lease allocates %.0f times, budget %v", allocs, leasingUploadAllocBudget)
	}
}

// routedAllocs measures one POST to target, asking for a route, through a
// two-replica gateway built with opts, checking that its 307 grants a
// spread lease exactly when leased is set.
func routedAllocs(t *testing.T, opts gateway.Options, target string, leased bool) float64 {
	t.Helper()
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	g, _ := startGateway(t, opts, r1, r2)
	h := g.Handler()
	obs.SetLogOutput(io.Discard)
	obs.SetLogLevel(slog.LevelInfo)
	t.Cleanup(func() {
		obs.SetLogLevel(slog.LevelWarn)
		obs.SetLogOutput(nil)
	})

	payload := []byte(`{"a":1,"b":2}`)
	body := &submitBody{}
	post := httptest.NewRequest(http.MethodPost, target, nil)
	post.Header.Set("Prefer", core.RoutePreference)
	post.Header.Set("Content-Type", "application/json")
	post.Header.Set(obs.RequestIDHeader, "4f1c2a9e0b7d3c56") // as every Go client sends one
	post.ContentLength = int64(len(payload))
	w := &submitWriter{header: http.Header{}}
	leaseKey := http.CanonicalHeaderKey(core.SpreadLeaseHeader)
	submit := func() {
		body.Reset(payload)
		post.Body = body
		clear(w.header)
		w.status = http.StatusOK
		h.ServeHTTP(w, post)
		if w.status != http.StatusTemporaryRedirect {
			t.Fatalf("routed POST %s: status %d, want 307", target, w.status)
		}
		if granted := w.header[leaseKey] != nil; granted != leased {
			t.Fatalf("routed POST %s granted a spread lease: %v, want %v", target, granted, leased)
		}
	}
	return testing.AllocsPerRun(1000, submit)
}
