package gateway

import "mathcloud/internal/obs"

// Gateway metric families (DESIGN.md §5d, §5h).  Ingress requests are
// already covered by the shared mc_http_* middleware; the series here answer
// the federation-specific questions: where is work going, which replicas are
// failing, and how often the gateway refuses admission.
var (
	metGwRequests = obs.NewCounterVec("mc_gateway_requests_total",
		"Requests proxied or redirected (code 3xx) to a replica, by route class, replica and upstream status class.",
		"route", "replica", "code")
	metGwProxySeconds = obs.NewHistogramVec("mc_gateway_proxy_seconds",
		"Latency of proxied requests from dispatch to upstream response headers.",
		obs.LatencyBuckets, "route")
	metGwHealthy = obs.NewGauge("mc_gateway_replicas_healthy",
		"Replicas currently considered healthy by the gateway.")
	metGwProxyErrors = obs.NewCounterVec("mc_gateway_proxy_errors_total",
		"Proxy attempts that failed to reach a replica (passive health mark), by replica.",
		"replica")
	metGwFanoutPartial = obs.NewCounter("mc_gateway_fanout_partial_total",
		"Scatter-gather responses assembled from a strict subset of replicas (Warning header attached).")
	metGwAdmissionRejects = obs.NewCounter("mc_gateway_admission_rejections_total",
		"Submissions rejected at the gateway with 503 because every candidate replica was saturated.")
	metGwSSEUpstreams = obs.NewGauge("mc_gateway_sse_upstreams",
		"Upstream SSE connections currently held open to replicas (shared across downstream watchers).")
	metGwSSEWatchers = obs.NewGauge("mc_gateway_sse_watchers",
		"Downstream SSE watchers currently attached to the gateway.")
)

// routeClass is the route label of a request's mc_gateway_requests_total
// and mc_gateway_proxy_seconds series.
type routeClass uint8

const (
	routeService routeClass = iota
	routeJob
	routeSweep
	routeFile
	numRouteClasses
)

var routeClassNames = [numRouteClasses]string{"service", "job", "sweep", "file"}

func (c routeClass) String() string { return routeClassNames[c] }

// codeError is the slot of the "error" code (the replica was not reached)
// among a route's request counters; slots 0–4 are the classes 1xx–5xx.
const codeError = 5

// requestCounters are one replica's mc_gateway_requests_total children,
// by route class and code slot, resolved when the gateway is built so a
// request renders no labels.
type requestCounters [numRouteClasses][codeError + 1]obs.Counter

func resolveRequestCounters(replica string) *requestCounters {
	c := new(requestCounters)
	for r := range c {
		for slot := range c[r] {
			code := "error"
			if slot != codeError {
				code = statusClass((slot + 1) * 100)
			}
			c[r][slot] = metGwRequests.With(routeClass(r).String(), replica, code)
		}
	}
	return c
}

// gwProxySeconds are mc_gateway_proxy_seconds' children by route class.
var gwProxySeconds = func() (h [numRouteClasses]obs.Histogram) {
	for r := range h {
		h[r] = metGwProxySeconds.With(routeClass(r).String())
	}
	return h
}()
