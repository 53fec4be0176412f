package gateway

import "mathcloud/internal/obs"

// Gateway metric families (DESIGN.md §5d, §5h).  Ingress requests are
// already covered by the shared mc_http_* middleware; the series here answer
// the federation-specific questions: where is work going, which replicas are
// failing, and how often the shared memo index routes to a cached result.
var (
	metGwRequests = obs.NewCounterVec("mc_gateway_requests_total",
		"Requests proxied to a replica, by route class, replica and upstream status class.",
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
	metGwIndexHits = obs.NewCounter("mc_gateway_memo_index_hits_total",
		"Job submissions routed by the shared memo index to the replica whose cache holds the result.")
	metGwAdmissionRejects = obs.NewCounter("mc_gateway_admission_rejections_total",
		"Submissions rejected at the gateway with 503 because every candidate replica was saturated.")
	metGwSSEUpstreams = obs.NewGauge("mc_gateway_sse_upstreams",
		"Upstream SSE connections currently held open to replicas (shared across downstream watchers).")
	metGwSSEWatchers = obs.NewGauge("mc_gateway_sse_watchers",
		"Downstream SSE watchers currently attached to the gateway.")
)
