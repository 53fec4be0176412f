package obs

import (
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Ingress metric families (DESIGN.md §5d), shared by every server.
var (
	metHTTPRequests = NewCounterVec("mc_http_requests_total",
		"HTTP requests served by the unified REST API, by route, method and status class.",
		"route", "method", "code")
	metHTTPLatency = NewHistogramVec("mc_http_request_seconds",
		"HTTP request handling latency by route.",
		LatencyBuckets, "route")
)

// knownMethods and knownClasses close the method and status-class label
// dimensions of the request counter, so a route's children can be resolved
// once, when the route is registered.  Any other method counts as "other":
// a client cannot mint series by inventing methods.
var knownMethods = [...]string{
	http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
	http.MethodHead, http.MethodOptions, http.MethodPatch, "other",
}

var knownClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"}

// routeStats holds one route label's metric children, resolved before the
// first request, so the per-request path renders no labels.  Resolved
// series stay hidden from /metrics until first use, so the cross product
// does not flood the exposition with zero series.
type routeStats struct {
	label    string
	latency  Histogram
	requests [len(knownMethods)][len(knownClasses)]Counter
}

var (
	routesMu sync.Mutex
	routes   = map[string]*routeStats{}
	// otherRoute labels requests no route matched (the 404 catch-all and
	// the mux's path-cleaning redirects).
	otherRoute = resolveRoute("other")
)

func resolveRoute(label string) *routeStats {
	routesMu.Lock()
	defer routesMu.Unlock()
	if s, ok := routes[label]; ok {
		return s
	}
	s := &routeStats{label: label, latency: metHTTPLatency.With(label)}
	for m, method := range knownMethods {
		for c, class := range knownClasses {
			s.requests[m][c] = metHTTPRequests.With(label, method, class)
		}
	}
	routes[label] = s
	return s
}

// Route wraps h, the handler a mux matched for the route named label, so
// that Instrument records the request under label.
func Route(label string, h http.Handler) http.Handler {
	s := resolveRoute(label)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if iw, ok := w.(*ingressWriter); ok {
			iw.route = s
		}
		h.ServeHTTP(w, r)
	})
}

// methodIndex is the knownMethods index of method.
func methodIndex(method string) int {
	for i, m := range knownMethods[:len(knownMethods)-1] {
		if m == method {
			return i
		}
	}
	return len(knownMethods) - 1
}

// classIndex folds a status code into its knownClasses index ("2xx" → 1).
func classIndex(code int) int {
	if c := code / 100; c >= 1 && c <= 5 {
		return c - 1
	}
	return len(knownClasses) - 1
}

// ingressWriter records the response status and the matched route for
// metrics and logs.
type ingressWriter struct {
	http.ResponseWriter
	status int
	route  *routeStats
}

func (w *ingressWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the wrapped writer so the SSE endpoints can stream
// through the instrumentation middleware.
func (w *ingressWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards to the wrapped writer, so the copy of a file download
// (http.ServeContent) reaches the connection's sendfile path instead of
// going through a 32 KiB user-space buffer.
func (w *ingressWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

// Unwrap returns the wrapped writer, for http.ResponseController.
func (w *ingressWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Instrument is the ingress middleware of every server: it establishes the
// request ID (reusing a propagated X-Request-ID or generating one), echoes
// it on the response, and records per-route request metrics and the
// structured request log.  The route is the one the wrapped mux matched
// (see Route); a request no route matched counts as "other".
func Instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// A propagated ID is echoed with the request's own value slice;
		// neither header map is written in place.
		echo := r.Header[RequestIDKey]
		var id string
		if len(echo) > 0 {
			id = echo[0]
		}
		if id == "" {
			id = NewRequestID()
		}
		if len(echo) != 1 || echo[0] != id {
			echo = []string{id}
		}
		ctx := WithRequestID(r.Context(), id)
		r = r.WithContext(ctx)
		w.Header()[RequestIDKey] = echo
		iw := &ingressWriter{ResponseWriter: w, status: http.StatusOK, route: otherRoute}
		next.ServeHTTP(iw, r)
		if !Enabled() {
			return
		}
		elapsed := time.Since(start)
		route := iw.route
		route.requests[methodIndex(r.Method)][classIndex(iw.status)].Inc()
		route.latency.Observe(elapsed.Seconds())
		// At the default warn level Log returns after its Enabled check
		// and the attrs stay on the stack: the hot path allocates nothing.
		Log(ctx, slog.LevelInfo, "http request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route.label),
			slog.Int("status", iw.status),
			slog.Duration("elapsed", elapsed),
		)
	})
}
