package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// APIHandler returns the gateway's routing handler without the ingress
// instrumentation (see Handler).  It serves the routes core.Routes gives
// TierGateway: the unified REST API of Table 1 unchanged — clients built
// against a single container work against the federation without
// modification — plus GET /search over the federated catalogue and
// GET /replicas, the federation health view.
//
// Requests about existing resources (jobs, sweeps, files) route in O(1) by
// the replica prefix of their IDs; resource creation is placed by
// digest homes, input locality and p2c (placement.go);
// collection reads scatter-gather.  A client that asks for routes
// (core.RoutePreference) is answered a placed or ID-routed request with a
// 307 to the replica instead of a proxied answer (dispatch).
func (g *Gateway) APIHandler() http.Handler {
	return rest.NewMux(core.TierGateway, map[string]http.HandlerFunc{
		"index":      g.handleIndex,
		"service":    g.handleService,
		"job_list":   func(w http.ResponseWriter, r *http.Request) { g.handleListFanout(w, r, "jobs") },
		"job":        func(w http.ResponseWriter, r *http.Request) { g.dispatchByID(w, r, routeJob) },
		"job_events": func(w http.ResponseWriter, r *http.Request) { g.streamByID(w, r, "job") },
		"sweep_list": g.handleSweepList,
		// The sweep resource and its child-job listing both live whole on
		// the sweep's home replica: children inherit the sweep's replica
		// prefix at mint time, so one affinity hop covers the campaign.
		"sweep":          func(w http.ResponseWriter, r *http.Request) { g.dispatchByID(w, r, routeSweep) },
		"sweep_jobs":     func(w http.ResponseWriter, r *http.Request) { g.dispatchByID(w, r, routeSweep) },
		"sweep_events":   func(w http.ResponseWriter, r *http.Request) { g.streamByID(w, r, "sweep") },
		"service_events": g.serveServiceFeed,
		"file":           g.handleFiles,
		"replicas":       g.handleReplicas,
		"search":         g.cat.ServeSearch,
	}, nil)
}

func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	rest.WriteJSON(w, http.StatusOK, map[string]any{"replicas": g.Replicas()})
}

// handleService serves the service resource: the description from the
// service's home replica, or a placed submission.
func (g *Gateway) handleService(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		rs, ok := g.homeReplica(name)
		if !ok {
			g.noReplica(w, name)
			return
		}
		g.forward(w, r, rs, routeService, nil)
	case http.MethodPost:
		g.handleSubmit(w, r, name)
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

func (g *Gateway) handleSweepList(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		g.handleSweepSubmit(w, r, r.PathValue("name"))
	case http.MethodGet:
		g.handleListFanout(w, r, "sweeps")
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// dispatchByID dispatches a request about an existing job, sweep or file to
// the replica its ID names; route is its mc_gateway_requests_total class.
func (g *Gateway) dispatchByID(w http.ResponseWriter, r *http.Request, route routeClass) {
	rs, err := g.affinityReplica(r.PathValue("id"))
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	g.dispatch(w, r, rs, route, nil, nil)
}

// streamByID serves the event stream of the job or sweep (kind) its ID
// names from that resource's home replica.
func (g *Gateway) streamByID(w http.ResponseWriter, r *http.Request, kind string) {
	rs, err := g.affinityReplica(r.PathValue("id"))
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	g.serveResourceStream(w, r, rs, kind)
}

// handleSubmit places one job submission: the body is buffered (it is a
// bounded JSON document by API contract), parsed for placement only when
// placement reads it (routeSubmit), and forwarded byte-identical to the
// placed replica, or the client is routed there.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request, service string) {
	bp := submitBufs.Get().(*[]byte)
	raw, err := rest.ReadBody((*bp)[:0], r.Body)
	var rs *replicaState
	var lease []string
	if err != nil {
		err = core.ErrBadRequest("read request body: %v", err)
	} else {
		rs, lease, err = g.routeSubmit(service, raw)
	}
	switch {
	case err != nil:
		// An unreadable body, or admission control: every candidate
		// advertises a full queue, so a proxy hop would only buy a
		// replica-side rejection.
		rest.WriteError(w, err)
	case rs == nil:
		g.noReplica(w, service)
	case !g.dispatch(w, r, rs, routeService, raw, lease):
		// Forwarded: the transport may still read the body after Do
		// returns, so its buffer is not reused.
		return
	}
	if cap(raw) <= maxPooledSubmit {
		*bp = raw[:0]
		submitBufs.Put(bp)
	}
}

// submitBufs pools the buffers job submissions are read into; one that grew
// past maxPooledSubmit goes to the garbage collector instead.
var submitBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledSubmit = 64 << 10

// handleSweepSubmit places a sweep: the whole campaign — the sweep record
// and every child job — lives on one replica, so distinct sweeps spread
// round-robin while each individual campaign keeps single-container
// batching and memoization semantics.  A campaign whose template references
// files lands on the replica that owns them.
func (g *Gateway) handleSweepSubmit(w http.ResponseWriter, r *http.Request, service string) {
	raw, err := rest.ReadBody(nil, r.Body)
	if err != nil {
		rest.WriteError(w, core.ErrBadRequest("read request body: %v", err))
		return
	}
	candidates := g.serviceReplicas(service)
	if len(candidates) == 0 {
		g.noReplica(w, service)
		return
	}
	// Only the template is decoded: axes and points are the replica's to
	// validate, and a body that does not parse still forwards for its 400.
	var spec struct {
		Template core.Values `json:"template"`
	}
	_ = json.Unmarshal(raw, &spec)
	rs, err := g.placeFresh(candidates, spec.Template)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	g.dispatch(w, r, rs, routeSweep, raw, nil)
}

func (g *Gateway) handleFiles(w http.ResponseWriter, r *http.Request) {
	if r.PathValue("id") == "" {
		if r.Method != http.MethodPost {
			rest.MethodNotAllowed(w, http.MethodPost)
			return
		}
		// Uploads spread over all healthy replicas on a cursor of their
		// own; the minted file ID carries the chosen replica's prefix, so
		// later reads and job submissions referencing the file route
		// straight back to the bytes.
		var healthy []*replicaState
		for _, rs := range g.replicas {
			if rs.isHealthy() {
				healthy = append(healthy, rs)
			}
		}
		if len(healthy) == 0 {
			rest.WriteJSON(w, http.StatusBadGateway, rest.ErrorBody{
				Error:  "gateway: no healthy replica for file upload",
				Status: http.StatusBadGateway,
			})
			return
		}
		// The body streams through: file uploads are unbounded, so they are
		// never buffered at the gateway.
		g.forward(w, r, spreadReplica(&g.upCursor, healthy), routeFile, nil)
		return
	}
	g.dispatchByID(w, r, routeFile)
}

// noReplica distinguishes "no such service in the federation" (404) from
// "service known but no replica can take it right now" (502).
func (g *Gateway) noReplica(w http.ResponseWriter, service string) {
	if !g.serviceKnown(service) {
		rest.WriteError(w, core.ErrNotFound("service", service))
		return
	}
	rest.WriteJSON(w, http.StatusBadGateway, rest.ErrorBody{
		Error:  fmt.Sprintf("gateway: no healthy replica for service %q", service),
		Status: http.StatusBadGateway,
	})
}

// affinityReplica resolves the home replica encoded in a resource ID.  A
// bare (unprefixed) ID is routable only in a single-replica federation —
// there is exactly one place it can live.
func (g *Gateway) affinityReplica(id string) (*replicaState, error) {
	name, ok := core.SplitReplicaID(id)
	if !ok {
		if len(g.replicas) == 1 {
			return g.replicas[0], nil
		}
		return nil, core.ErrNotFound("resource", id)
	}
	rs := g.byName[name]
	if rs == nil {
		return nil, core.ErrNotFound("replica", name)
	}
	return rs, nil
}

// ensureBase re-resolves the base URL of a replica marked unhealthy before
// routing to it, so a rescheduled container is found at its new address
// without waiting for the next health sweep.
func (g *Gateway) ensureBase(rs *replicaState) {
	if g.resolver == nil || rs.isHealthy() {
		return
	}
	if b, ok := g.resolver(rs.name); ok {
		b = trimBase(b)
		rs.mu.Lock()
		rs.base = b
		rs.mu.Unlock()
	}
}

// dispatch answers a placed or ID-routed request on replica rs.  A client
// that prefers routes is sent to a healthy replica with a 307 to the same
// path and query there (RFC 9110 §15.4.8: the method and body are replayed)
// and talks to it directly; everyone else, and every request to a replica
// marked down, is proxied, so passive health still sees the failure or the
// revival.  Uploads, scatter-gather views and event streams never come
// here: their multiplexing is the gateway's job.  A non-nil lease is the
// core.SpreadLeaseHeader value the 307 of a spread-placed submission
// grants.  It reports whether it redirected; false means the request, body
// included, was forwarded.
func (g *Gateway) dispatch(w http.ResponseWriter, r *http.Request, rs *replicaState, route routeClass, body []byte, lease []string) (redirected bool) {
	if !prefersRoute(r.Header) || !rs.isHealthy() {
		g.forward(w, r, rs, route, body)
		return false
	}
	h := w.Header()
	h["Location"] = []string{rs.target(r)}
	h["Preference-Applied"] = preferenceApplied
	if lease != nil {
		h[spreadLeaseKey] = lease
	}
	w.WriteHeader(http.StatusTemporaryRedirect)
	rs.countRequest(route, http.StatusTemporaryRedirect)
	return true
}

// preferenceApplied is the Preference-Applied value of every redirect,
// shared by their header maps; net/http only reads it.
var preferenceApplied = []string{core.RoutePreference}

// spreadLeaseKey is core.SpreadLeaseHeader as net/http keys a header map.
var spreadLeaseKey = http.CanonicalHeaderKey(core.SpreadLeaseHeader)

// prefersRoute reports whether h asks for core.RoutePreference, alone or in
// a list of RFC 7240 preferences ("Prefer: respond-async, mc-route").
func prefersRoute(h http.Header) bool {
	for _, v := range h.Values("Prefer") {
		for v != "" {
			var pref string
			pref, v, _ = strings.Cut(v, ",")
			pref, _, _ = strings.Cut(pref, ";")
			pref, _, _ = strings.Cut(pref, "=")
			if strings.EqualFold(strings.TrimSpace(pref), core.RoutePreference) {
				return true
			}
		}
	}
	return false
}

// target is the URL of r's path and query on the replica, built in one
// allocation.
func (rs *replicaState) target(r *http.Request) string {
	base, path := rs.baseURL(), r.URL.EscapedPath()
	if r.URL.RawQuery == "" {
		return base + path
	}
	return base + path + "?" + r.URL.RawQuery
}

// forward proxies the request to one replica, streaming the response back
// through pooled copy buffers.  A non-nil body replaces the request body
// (already buffered by the caller); nil streams r.Body through.  Reaching
// the replica at all is what health tracks: a connection-level failure
// marks it down (passive health) and surfaces as 502 Bad Gateway, which the
// client retry policy replays for idempotent methods.  The request carries
// the gateway's ingress request ID, so both tiers log it under one ID, and
// the answer keeps that one X-Request-ID value.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, rs *replicaState, route routeClass, body []byte) {
	g.ensureBase(rs)
	target := rs.target(r)
	var reqBody io.Reader = r.Body
	if body != nil {
		// bytes.Reader wires ContentLength and GetBody, so buffered bodies
		// survive transport-level replays.
		reqBody = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, target, reqBody)
	if err != nil {
		rest.WriteError(w, fmt.Errorf("gateway: build upstream request: %w", err))
		return
	}
	if body == nil {
		// A streamed body keeps the length the client declared, so an upload
		// is not re-framed as chunked on the second hop.
		out.ContentLength = r.ContentLength
	}
	if id, ok := obs.RequestIDFrom(r.Context()); ok {
		out.Header[obs.RequestIDKey] = []string{id}
	}
	copyHeaders(out.Header, r.Header)
	start := time.Now()
	resp, err := g.client.Do(out)
	if err != nil {
		g.markReplicaDown(rs, err)
		rs.countRequest(route, 0)
		status := http.StatusBadGateway
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		// The downstream client going away is not a replica fault; there is
		// nobody left to answer anyway.
		if r.Context().Err() == nil {
			rest.WriteJSON(w, status, rest.ErrorBody{
				Error:  fmt.Sprintf("gateway: replica %s unreachable: %v", rs.name, err),
				Status: status,
			})
		}
		return
	}
	defer resp.Body.Close()
	gwProxySeconds[route].Observe(time.Since(start).Seconds())
	rs.countRequest(route, resp.StatusCode)
	if !rs.isHealthy() && resp.StatusCode < http.StatusInternalServerError {
		g.reviveReplica(rs)
	}
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	// A mid-stream failure leaves nothing to do: the headers are out.
	_, _ = rest.Copy(w, resp.Body)
}

// copyHeaders adds src's end-to-end headers to dst.  A request ID dst
// already holds is the gateway's and stays the only one.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if isHopHeader(k) || k == obs.RequestIDKey && dst[k] != nil {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// isHopHeader reports whether name is a connection-scoped header a proxy
// must not forward (RFC 9110 §7.6.1).  Keys of header maps filled by
// net/http are already canonical, so only a miss is canonicalised, once.
func isHopHeader(name string) bool {
	switch name {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	if canon := http.CanonicalHeaderKey(name); canon != name {
		return isHopHeader(canon)
	}
	return false
}

func statusClass(code int) string {
	return strconv.Itoa(code/100) + "xx"
}

// --- Scatter-gather -------------------------------------------------------

// fanResult is one replica's answer in a scatter-gather round.
type fanResult struct {
	rs   *replicaState
	body []byte
	err  error
}

// scatter fans a GET out to the given replicas with a per-replica deadline
// each, collecting bodies and failures.  The fan-out is bounded: at most
// maxFanout requests are in flight at once, so a wide federation cannot
// exhaust the gateway's connection pool in one index hit.
const maxFanout = 8

func (g *Gateway) scatter(ctx context.Context, replicas []*replicaState, path, query string) []fanResult {
	results := make([]fanResult, len(replicas))
	sem := make(chan struct{}, maxFanout)
	var wg sync.WaitGroup
	for i, rs := range replicas {
		wg.Add(1)
		go func(i int, rs *replicaState) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pctx, cancel := context.WithTimeout(ctx, g.fanout)
			defer cancel()
			target := rs.baseURL() + path
			if query != "" {
				target += "?" + query
			}
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, target, nil)
			if err != nil {
				results[i] = fanResult{rs: rs, err: err}
				return
			}
			req.Header.Set("Accept", "application/json")
			resp, err := g.client.Do(req)
			if err != nil {
				results[i] = fanResult{rs: rs, err: err}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				rest.Drain(resp.Body)
				results[i] = fanResult{rs: rs, err: fmt.Errorf("%s", resp.Status)}
				return
			}
			body, err := io.ReadAll(io.LimitReader(resp.Body, rest.MaxBodyBytes))
			results[i] = fanResult{rs: rs, body: body, err: err}
		}(i, rs)
	}
	wg.Wait()
	return results
}

// warnPartial attaches one Warning header per unreachable replica (RFC 9110
// §5.5 code 199) so callers can tell a complete federation answer from a
// partial one, and records the partial round.
func warnPartial(w http.ResponseWriter, failed []fanResult) {
	for _, f := range failed {
		w.Header().Add("Warning",
			fmt.Sprintf("199 mcgw %q", fmt.Sprintf("replica %s unavailable: %v", f.rs.name, f.err)))
	}
	if len(failed) > 0 {
		metGwFanoutPartial.Inc()
	}
}

// allFailed writes the terminal scatter-gather error: 504 when every
// failure was a deadline, 502 otherwise.
func allFailed(w http.ResponseWriter, failed []fanResult) {
	status := http.StatusGatewayTimeout
	for _, f := range failed {
		if !errors.Is(f.err, context.DeadlineExceeded) {
			status = http.StatusBadGateway
			break
		}
	}
	rest.WriteJSON(w, status, rest.ErrorBody{
		Error:  "gateway: no replica answered",
		Status: status,
	})
}

// handleIndex merges the live container indexes of every replica into one
// federated index: the union of advertised services (deduplicated by name)
// plus the federation health view.
func (g *Gateway) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	results := g.scatter(r.Context(), g.replicas, "/", "")
	var ok, failed []fanResult
	for _, f := range results {
		if f.err == nil {
			ok = append(ok, f)
		} else {
			failed = append(failed, f)
		}
	}
	if len(ok) == 0 {
		allFailed(w, failed)
		return
	}
	seen := make(map[string]bool)
	var services []core.ServiceDescription
	for _, f := range ok {
		var doc indexDoc
		if err := json.Unmarshal(f.body, &doc); err != nil {
			continue
		}
		for _, d := range doc.Services {
			if !seen[d.Name] {
				seen[d.Name] = true
				services = append(services, d)
			}
		}
	}
	sort.Slice(services, func(i, j int) bool { return services[i].Name < services[j].Name })
	if services == nil {
		services = []core.ServiceDescription{}
	}
	warnPartial(w, failed)
	rest.WriteJSON(w, http.StatusOK, map[string]any{
		"container": "mcgw",
		"replicas":  g.Replicas(),
		"services":  services,
	})
}

// handleListFanout merges one collection listing (jobs or sweeps of a
// service) across the replicas advertising it.  Totals are summed; limit
// and offset forward to each replica unchanged, so a page bound applies
// per replica — the trade that keeps the gateway stateless (no cross-
// replica cursor).
func (g *Gateway) handleListFanout(w http.ResponseWriter, r *http.Request, kind string) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	service := r.PathValue("name")
	candidates := g.serviceReplicas(service)
	if len(candidates) == 0 {
		g.noReplica(w, service)
		return
	}
	results := g.scatter(r.Context(), candidates, r.URL.EscapedPath(), r.URL.RawQuery)
	var ok, failed []fanResult
	for _, f := range results {
		if f.err == nil {
			ok = append(ok, f)
		} else {
			failed = append(failed, f)
		}
	}
	if len(ok) == 0 {
		allFailed(w, failed)
		return
	}
	merged := []json.RawMessage{}
	total := 0
	for _, f := range ok {
		var page struct {
			Jobs   []json.RawMessage `json:"jobs"`
			Sweeps []json.RawMessage `json:"sweeps"`
			Total  int               `json:"total"`
		}
		if err := json.Unmarshal(f.body, &page); err != nil {
			continue
		}
		if kind == "jobs" {
			merged = append(merged, page.Jobs...)
			total += page.Total
		} else {
			merged = append(merged, page.Sweeps...)
			total += len(page.Sweeps)
		}
	}
	warnPartial(w, failed)
	if kind == "jobs" {
		rest.WriteJSON(w, http.StatusOK, map[string]any{"jobs": merged, "total": total})
		return
	}
	rest.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": merged})
}
