package container_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// routeRecorder is a slog handler that keeps the route label of the last
// request log record.
type routeRecorder struct{ route *string }

func (h routeRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h routeRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h routeRecorder) WithGroup(string) slog.Handler            { return h }

func (h routeRecorder) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "http request" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "route" {
				*h.route = a.Value.String()
			}
			return true
		})
	}
	return nil
}

// FuzzRoute sends arbitrary methods and paths through Container.Handler: no
// request may panic, every 4xx/5xx answer is a JSON rest.ErrorBody, and the
// request is labelled with a route of core.Routes or "other".
func FuzzRoute(f *testing.F) {
	_, srv := startContainer(f)
	h := srv.Config.Handler
	labels := map[string]bool{"other": true}
	for _, rt := range core.Routes {
		labels[rt.Label] = true
	}
	var route string
	obs.SetLogger(slog.New(routeRecorder{&route}))
	f.Cleanup(func() { obs.SetLogger(nil) })

	f.Fuzz(func(t *testing.T, method, path string) {
		// The deadline ends the event streams, which otherwise stay open
		// until their idle timeout.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://mc.test/", http.NoBody)
		if err != nil {
			t.Fatal(err)
		}
		// Any method string reaches the handler, even one the server would
		// reject as a malformed token first.
		req.Method, req.URL.Path = method, path
		route = ""
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !labels[route] {
			t.Errorf("%s %q: route label %q is not in core.Routes", method, path, route)
		}
		if rec.Code >= 400 {
			var body rest.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Status != rec.Code {
				t.Errorf("%s %q: %d with body %q, want a JSON error body", method, path, rec.Code, rec.Body)
			}
		}
	})
}
