// Package client implements the programmatic client of MathCloud
// computational web services.  Because services expose the unified REST
// API over plain HTTP and JSON, the client is a thin layer: describe a
// service, submit requests, poll jobs, stage files.  It corresponds to the
// Java/Python client libraries shipped with the paper's platform.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// Description-cache metric families (DESIGN.md §5d).  A hit is a 304 answer
// that reused the cached decoded description; a miss is a fetch with no
// cached entry; a stale is a conditional fetch the server answered with a
// full 200 because the description changed.
var (
	metDescCacheHits = obs.NewCounter("mc_desc_cache_hits_total",
		"Description fetches answered 304 Not Modified and served from the client cache.")
	metDescCacheMisses = obs.NewCounter("mc_desc_cache_misses_total",
		"Description fetches with no cached entry (full body transfer).")
	metDescCacheStale = obs.NewCounter("mc_desc_cache_stale_total",
		"Conditional description fetches answered 200 because the cached entity tag was stale.")
)

// Client holds the transport configuration shared by service handles.
type Client struct {
	// HTTP is the underlying transport; nil uses the process-wide tuned
	// client (rest.SharedClient).
	HTTP *http.Client
	// Token, when non-empty, is sent as a bearer token; this is how
	// OpenID-style identities authenticate against secured containers.
	Token string
	// ActFor, when non-empty, asks secured services to treat the request
	// as made on behalf of that user (the delegation mechanism; the
	// caller must be on the target service's proxy list).
	ActFor string
	// WaitWindow is the server-side long-poll window used by Wait and
	// Call (0 = 10 s).  The server completes the window the instant the
	// job finishes, so longer windows only reduce round trips.
	WaitWindow time.Duration
	// MinPoll is the minimum delay between successive Wait polls when the
	// server answers before the long-poll window elapses — a server that
	// ignores the wait parameter would otherwise be polled in a tight
	// loop (0 = 250 ms).
	MinPoll time.Duration
	// Retry governs how transient failures — dropped connections, 503
	// overload answers with Retry-After — are retried with exponential
	// backoff.  Nil uses rest.DefaultRetry; rest.NoRetry disables
	// retrying.
	Retry *rest.RetryPolicy

	// descMu guards descCache, the per-client description cache keyed by
	// service URI.  Describe sends If-None-Match with the cached entity
	// tag; a 304 answer reuses the cached decoded description, so repeated
	// description fetches (workflow validation, catalogue pings) cost one
	// header round trip instead of a body transfer plus a JSON decode.
	descMu    sync.Mutex
	descCache map[string]cachedDescription

	// routeMu guards routes, the route cache: by gateway host, the
	// replicas behind it that a redirect led to.
	routeMu sync.Mutex
	routes  map[string]*gatewayRoutes
}

// cachedDescription is one validated entry of the description cache.
type cachedDescription struct {
	etag string
	desc core.ServiceDescription
}

// maxCachedDescriptions bounds the per-client description cache.
const maxCachedDescriptions = 256

// New returns a client with default transport settings.  All clients built
// this way share one tuned http.Transport (rest.SharedTransport), so
// keep-alive connections are pooled across every Service handle in the
// process instead of per call site.
//
// The client is gateway-aware by construction: pointing the base URL of a
// Service handle at a federation gateway (cmd/mcgw) instead of a single
// container changes nothing in the protocol.  Resource identifiers minted by
// federated replicas carry their home replica as an affinity prefix
// (ReplicaOf); the gateway routes on that prefix, and the retry policy
// transparently replays idempotent requests the gateway answered 502/504
// while a replica was down.  A client that follows redirects and carries no
// credentials is also routed rather than proxied (see do).
func New() *Client {
	return &Client{HTTP: rest.SharedClient}
}

// ReplicaOf extracts the home-replica name from an affinity-tagged resource
// identifier or from a resource URI whose last path segment is one
// ("http://gw/services/s/jobs/r03-<id>" → "r03").  It reports false for bare
// pre-federation IDs.
func ReplicaOf(idOrURI string) (string, bool) {
	seg := idOrURI
	if i := strings.IndexAny(seg, "?#"); i >= 0 {
		seg = seg[:i]
	}
	seg = strings.TrimRight(seg, "/")
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	return core.SplitReplicaID(seg)
}

// defaultClient backs Default.
var defaultClient = New()

// Default returns the process-wide shared client.  Use it for one-off calls
// (description fetches, file downloads) instead of allocating a client per
// call.
func Default() *Client { return defaultClient }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return rest.SharedClient
}

func (c *Client) waitWindow() time.Duration {
	if c.WaitWindow > 0 {
		return c.WaitWindow
	}
	return 10 * time.Second
}

func (c *Client) minPoll() time.Duration {
	if c.MinPoll > 0 {
		return c.MinPoll
	}
	return 250 * time.Millisecond
}

func (c *Client) retry() *rest.RetryPolicy {
	if c.Retry != nil {
		return c.Retry
	}
	return rest.DefaultRetry
}

// do sends req under the retry policy.  A client whose http.Client
// follows redirects by Go's default rules and which carries no credentials
// is routed (DESIGN.md §5h.5): each replayable request asks for a route, and
// one a gateway routes goes to the replica itself.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	return c.doRoute(req, placement{})
}

// placement describes a request a gateway places afresh — a job submission
// or an upload — which may take a spread lease the gateway granted and
// place itself on the leased replicas.
type placement struct {
	fresh bool // the request is placed afresh: it may take and use a lease
	// upload marks an upload, whose route is asked for with
	// Expect: 100-continue, so its body goes to the replica only.
	upload bool
	// files holds a submission's inputs when its body references files:
	// a lease places it on the leased replica that owns most of them.
	files core.Values
}

// doRoute is do for a request placed as p says.
func (c *Client) doRoute(req *http.Request, p placement) (*http.Response, error) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.ActFor != "" {
		req.Header.Set(core.ActForHeader, c.ActFor)
	}
	if req.Header.Get("Accept") == "" {
		req.Header.Set("Accept", "application/json")
	}
	hc := c.httpClient()
	if c.Token != "" || hc.CheckRedirect != nil || !rest.Replayable(req) {
		return c.retry().Do(hc, req)
	}
	rt := &routed{c: c, hc: hc, url: req.URL, host: req.Host, place: p}
	return c.retry().Send(req, rt.send)
}

// routeHold is how long a client stops asking a gateway for routes after a
// replica it was routed to failed to answer as that replica, unless the
// gateway could not reach the replica either.
const routeHold = time.Minute

// gatewayRoutes is what a client learned about the gateway at one host.
type gatewayRoutes struct {
	// base is the path the gateway's API hangs off, as this client
	// addresses it ("" at the root).
	base string
	// replicas maps a replica name to the base URL it answered from.
	replicas map[string]string
	// holdUntil, while in the future, stops routes being asked for.
	holdUntil time.Time
	// leases holds the spread leases granted, by the escaped path on the
	// gateway of the service or file collection they place.
	leases map[string]*spreadLease
}

// spreadLease is a gateway's spread lease on one path (core.SpreadLease) —
// a service's submissions or the file collection's uploads — as this
// client uses it: the URL each leased replica is posted at, until the lease
// runs out, taken in turn unless the files a submission references pick
// one.
type spreadLease struct {
	until time.Time
	names []string
	urls  []*url.URL // names[i]'s URL of the service, without the query
	next  int        // the index of the replica the next submission goes to
}

// routed carries the attempts of one request.  Each attempt is routed — sent
// straight to the replica the route cache names for the request's ID, or
// sent with the route preference, which a gateway answers with a 307 to the
// replica that serves it — until a routed hop fails.  The attempts after
// that go through the gateway unrouted, so its passive health sees the
// failure.  Every attempt is one of the retry policy's.
type routed struct {
	c      *Client
	hc     *http.Client
	url    *url.URL  // the request's own URL, on the gateway
	host   string    // and its Host
	place  placement // how a spread lease may place it
	failed bool      // a routed hop of this request failed
	held   bool      // and this request put the gateway's routes on hold
}

// send makes one attempt.  r is the request or the retry policy's copy of
// it, so its URL and preference are set afresh for each attempt.
func (rt *routed) send(r *http.Request) (*http.Response, error) {
	r.URL, r.Host = rt.url, rt.host
	if rt.place.fresh && !rt.failed {
		if direct, name := rt.c.leased(r.URL, rt.place.files); direct != nil {
			return rt.sendLeased(r, direct, name)
		}
	}
	direct, id, held := rt.c.lookup(r.URL)
	if rt.failed || held {
		rt.ask(r.Header, false)
		resp, err := rt.hc.Do(r)
		if rt.held && err == nil && (resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusGatewayTimeout) {
			// The gateway cannot reach the replica either: it is down, not
			// out of this client's reach.
			rt.c.release(r.URL.Host)
		}
		rt.held = false
		return resp, err
	}
	if direct != nil {
		r.URL, r.Host = direct, ""
	}
	rt.ask(r.Header, direct == nil)
	resp, err := rt.hc.Do(r)
	if err != nil {
		var uerr *url.Error
		if r.Context().Err() == nil && errors.As(err, &uerr) && (direct != nil || uerr.URL != r.URL.String()) {
			rt.fail(direct == nil, uerr.URL)
		}
		return nil, err
	}
	final := resp.Request.URL
	redirect := resp.Request.Response // the 307, when one was followed
	if direct == nil && (redirect == nil || redirect.Header.Get("Preference-Applied") != core.RoutePreference) {
		return resp, nil // answered by the server asked: not routed
	}
	var gwBase, replicaBase string
	if direct == nil {
		// The redirect kept the request's own resource path: what precedes
		// it is the replica's base there, and the gateway's here.
		from, to := r.URL.EscapedPath(), final.EscapedPath()
		tail := sharedTail(from, to)
		gwBase = from[:len(from)-tail]
		replicaBase = final.Scheme + "://" + final.Host + to[:len(to)-tail]
		id, _ = core.DirectID(to[len(to)-tail:])
	}
	replica := answeredBy(resp)
	if want, ok := core.SplitReplicaID(id); replica == "" || ok && replica != want {
		// Something else listens where the replica was said to be.
		rest.Drain(resp.Body)
		resp.Body.Close()
		rt.fail(direct == nil, final.String())
		return nil, fmt.Errorf("client: %s answered as replica %q, not the one it was routed to", final.Redacted(), replica)
	}
	if direct == nil {
		rt.c.learn(rt.url.Host, gwBase, replica, replicaBase)
		if v := redirect.Header[spreadLeaseKey]; rt.place.fresh && len(v) == 1 {
			rt.c.takeLease(rt.url, v[0], replica, final, gwBase, replicaBase)
		}
	}
	return resp, nil
}

// ask sets on h the headers with which an attempt asks the gateway for a
// route, when route is set, or removes them, for an attempt sent anywhere
// else.  An upload asks with Expect: 100-continue: the gateway answers
// the route without reading the body, so a transport that honours the
// expectation sends the bytes once, to the replica.
func (rt *routed) ask(h http.Header, route bool) {
	if !route {
		h.Del("Prefer")
		h.Del("Expect")
		return
	}
	h.Set("Prefer", core.RoutePreference)
	if rt.place.upload {
		h.Set("Expect", "100-continue")
	}
}

// sendLeased posts r to direct, where a spread lease placed it on the
// replica name.  The answer counts only when name gives it; a failed
// connection, an answer from elsewhere or a full queue (503) drops the
// lease, and the retry policy's next attempt goes through the gateway
// unrouted, so its passive health and admission control see the failure.
func (rt *routed) sendLeased(r *http.Request, direct *url.URL, name string) (*http.Response, error) {
	r.URL, r.Host = direct, ""
	rt.ask(r.Header, false)
	resp, err := rt.hc.Do(r)
	if err != nil {
		if r.Context().Err() == nil {
			rt.dropLease()
		}
		return nil, err
	}
	if replica := answeredBy(resp); replica != name {
		rest.Drain(resp.Body)
		resp.Body.Close()
		rt.dropLease()
		return nil, fmt.Errorf("client: %s answered as replica %q, not the leased %q", direct.Redacted(), replica, name)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		rt.dropLease()
	}
	return resp, nil
}

// dropLease drops the spread lease of the request's service and sends the
// request's further attempts through the gateway unrouted.
func (rt *routed) dropLease() {
	rt.failed = true
	rt.c.routeMu.Lock()
	defer rt.c.routeMu.Unlock()
	if g := rt.c.routes[rt.url.Host]; g != nil {
		delete(g.leases, rt.url.EscapedPath())
	}
}

// replicaKey and spreadLeaseKey are core.ReplicaHeader and
// core.SpreadLeaseHeader as net/http keys a header map.
var (
	replicaKey     = http.CanonicalHeaderKey(core.ReplicaHeader)
	spreadLeaseKey = http.CanonicalHeaderKey(core.SpreadLeaseHeader)
)

// answeredBy returns the replica identity an answer carries.
func answeredBy(resp *http.Response) string {
	if v := resp.Header[replicaKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// leased returns where the next submission or upload to u goes on the
// spread lease of u's path, and the replica that must answer it there: nil
// while no live lease covers u, or the gateway's routes are on hold.  A
// submission whose inputs (files) reference files goes to the leased
// replica that owns most of them (core.FileHome, the gateway's own rule);
// the rest, and one no leased replica owns, take the lease's cursor.
func (c *Client) leased(u *url.URL, files core.Values) (*url.URL, string) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	g := c.routes[u.Host]
	if g == nil || len(g.leases) == 0 || !g.holdUntil.IsZero() && time.Now().Before(g.holdUntil) {
		return nil, ""
	}
	path := u.EscapedPath()
	l := g.leases[path]
	if l == nil {
		return nil, ""
	}
	if !time.Now().Before(l.until) {
		delete(g.leases, path)
		return nil, ""
	}
	i, home := core.FileHome(files, len(l.names), func(i int) string { return l.names[i] })
	if !home {
		i = l.next
		l.next = (i + 1) % len(l.urls)
	}
	direct := *l.urls[i]
	direct.RawQuery = u.RawQuery
	return &direct, l.names[i]
}

// takeLease keeps the spread lease v a gateway granted on the 307 of a
// submission to u, which redirected it to final and which replica
// answered; gwBase and replicaBase are the API bases the redirect showed.
// Every leased replica is posted at its base plus the path the gateway
// redirected to, starting after the replica that answered, and is learned
// as a route for the IDs it mints.  A lease that does not parse, leaves out
// the replica that answered or does not name the base redirected to is
// ignored.
func (c *Client) takeLease(u *url.URL, v, replica string, final *url.URL, gwBase, replicaBase string) {
	lease, err := core.ParseSpreadLease(v)
	if err != nil {
		return
	}
	at := -1
	for i, r := range lease.Replicas {
		if r.Name == replica {
			at = i
		}
	}
	if at < 0 {
		return
	}
	base := lease.Replicas[at].Base
	to := final.Scheme + "://" + final.Host + final.EscapedPath()
	if !strings.HasPrefix(to, base+"/") || !strings.HasPrefix(replicaBase, base) {
		return
	}
	path, extra := to[len(base):], replicaBase[len(base):]
	l := &spreadLease{
		until: time.Now().Add(lease.For),
		names: make([]string, len(lease.Replicas)),
		urls:  make([]*url.URL, len(lease.Replicas)),
		next:  (at + 1) % len(lease.Replicas),
	}
	for i, r := range lease.Replicas {
		direct, err := url.Parse(r.Base + path)
		if err != nil {
			return
		}
		l.names[i], l.urls[i] = r.Name, direct
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	g := c.gatewayLocked(u.Host)
	if g.base != gwBase {
		g.base, g.replicas = gwBase, make(map[string]string)
	}
	for _, r := range lease.Replicas {
		g.replicas[r.Name] = r.Base + extra
	}
	if g.leases == nil {
		g.leases = make(map[string]*spreadLease)
	}
	g.leases[u.EscapedPath()] = l
}

// fail records a failed routed hop to failedURL: the route to that replica
// is dropped, and when the gateway had just handed the hop off (fresh), its
// routes are put on hold — the replica may be out of this client's reach.
func (rt *routed) fail(fresh bool, failedURL string) {
	rt.failed = true
	rt.c.forget(rt.url.Host, failedURL)
	if fresh {
		rt.c.hold(rt.url.Host)
		rt.held = true
	}
}

// sharedTail returns the length of the longest common suffix of paths a and
// b made of whole segments.
func sharedTail(a, b string) int {
	n := 0
	for i := 1; i <= len(a) && i <= len(b) && a[len(a)-i] == b[len(b)-i]; i++ {
		if a[len(a)-i] == '/' {
			n = i
		}
	}
	return n
}

// lookup returns the URL on its replica of a request for u, when u is a
// Direct route whose ID names a replica the client has learned behind the
// gateway at u's host, and that ID; and whether that gateway's routes are
// on hold.
func (c *Client) lookup(u *url.URL) (direct *url.URL, id string, held bool) {
	c.routeMu.Lock()
	g := c.routes[u.Host]
	if g == nil {
		c.routeMu.Unlock()
		return nil, "", false
	}
	held = !g.holdUntil.IsZero() && time.Now().Before(g.holdUntil)
	path := u.EscapedPath()
	if held || len(g.replicas) == 0 || !strings.HasPrefix(path, g.base) {
		c.routeMu.Unlock()
		return nil, "", held
	}
	path = path[len(g.base):]
	id, _ = core.DirectID(path)
	name, _ := core.SplitReplicaID(id)
	base, ok := g.replicas[name]
	c.routeMu.Unlock()
	if !ok {
		return nil, "", false
	}
	direct, err := url.Parse(base + path)
	if err != nil {
		return nil, "", false
	}
	direct.RawQuery = u.RawQuery
	return direct, id, false
}

// learn records that replica, behind the gateway whose API hangs off
// gwBase, answered from replicaBase.
func (c *Client) learn(gateway, gwBase, replica, replicaBase string) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	g := c.gatewayLocked(gateway)
	if g.base != gwBase {
		g.base, g.replicas = gwBase, make(map[string]string)
	}
	g.replicas[replica] = replicaBase
}

// forget drops the route behind gateway to the replica that failed to
// answer failedURL.
func (c *Client) forget(gateway, failedURL string) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if g := c.routes[gateway]; g != nil {
		for name, base := range g.replicas {
			if strings.HasPrefix(failedURL, base+"/") {
				delete(g.replicas, name)
				g.dropLeasesOn(name)
			}
		}
	}
}

// dropLeasesOn drops every spread lease naming replica.
func (g *gatewayRoutes) dropLeasesOn(replica string) {
	for path, l := range g.leases {
		for _, name := range l.names {
			if name == replica {
				delete(g.leases, path)
				break
			}
		}
	}
}

// hold stops routes being asked of gateway for routeHold.
func (c *Client) hold(gateway string) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	c.gatewayLocked(gateway).holdUntil = time.Now().Add(routeHold)
}

// gatewayLocked returns the routes of gateway, creating them; routeMu must
// be held.
func (c *Client) gatewayLocked(gateway string) *gatewayRoutes {
	g := c.routes[gateway]
	if g == nil {
		if c.routes == nil {
			c.routes = make(map[string]*gatewayRoutes)
		}
		g = &gatewayRoutes{replicas: make(map[string]string)}
		c.routes[gateway] = g
	}
	return g
}

// release lifts a hold on gateway's routes.
func (c *Client) release(gateway string) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if g := c.routes[gateway]; g != nil {
		g.holdUntil = time.Time{}
	}
}

// apiError converts a non-2xx response into an error carrying the server's
// message.
func apiError(resp *http.Response) error {
	defer rest.Drain(resp.Body)
	var body rest.ErrorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &body); err == nil && body.Error != "" {
		return &APIError{Status: resp.StatusCode, Message: body.Error}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
}

// APIError is an error response from a MathCloud service.
type APIError struct {
	Status  int
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is a 404 API error.
func IsNotFound(err error) bool {
	var api *APIError
	return errors.As(err, &api) && api.Status == http.StatusNotFound
}

func (c *Client) getJSON(ctx context.Context, uri string, out any) error {
	_, err := c.getJSONWait(ctx, uri, out)
	return err
}

// getJSONWait is getJSON, additionally returning the server's advertised
// wait ceiling (the Wait-Max header; 0 when absent).  Long-poll loops use
// it to shrink their requested windows to what the server will honour.
func (c *Client) getJSONWait(ctx context.Context, uri string, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, uri, nil)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, fmt.Errorf("client: GET %s: %w", uri, err)
	}
	defer resp.Body.Close()
	waitMax, _ := time.ParseDuration(resp.Header.Get(rest.WaitMaxHeader))
	if resp.StatusCode != http.StatusOK {
		return waitMax, apiError(resp)
	}
	if err := decodeBody(resp.Body, out); err != nil {
		return waitMax, fmt.Errorf("client: decode %s: %w", uri, err)
	}
	return waitMax, nil
}

// bodyBufs pools the buffers decodeBody reads bodies into.  A buffer that
// grew past maxPooledBody (a huge page) goes to the garbage collector.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeBody decodes a response body into out as json.Decoder.Decode does.
// A target with its own UnmarshalJSON (a job, a page of jobs) is handed the
// whole body in one call, which skips the Decoder's validating pre-scan;
// when that call fails, the body is decoded again through the Decoder into
// a zeroed target, which takes the first value and ignores what follows.
func decodeBody(body io.Reader, out any) error {
	u, ok := out.(json.Unmarshaler)
	if !ok {
		return json.NewDecoder(body).Decode(out)
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	_, rerr := buf.ReadFrom(body)
	if rerr == nil && u.UnmarshalJSON(buf.Bytes()) == nil {
		return nil
	}
	reflect.ValueOf(out).Elem().SetZero()
	var r io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		// The Decoder sees the error where the body raised it.
		r = io.MultiReader(r, errReader{rerr})
	}
	return json.NewDecoder(r).Decode(out)
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// Service is a handle to one computational web service identified by its
// URI.
type Service struct {
	client *Client
	uri    string
}

// Service returns a handle for the service at the given URI.
func (c *Client) Service(uri string) *Service {
	return &Service{client: c, uri: strings.TrimRight(uri, "/")}
}

// URI returns the service resource URI.
func (s *Service) URI() string { return s.uri }

// Describe performs GET on the service resource and returns its
// description.  Repeated calls revalidate a cached copy with a conditional
// GET (If-None-Match): a 304 answer reuses the cached decoded description
// instead of transferring and re-decoding the body.  Returned descriptions
// share immutable parameter slices with the cache and must not be mutated.
func (s *Service) Describe(ctx context.Context) (core.ServiceDescription, error) {
	return s.client.describeService(ctx, s.uri)
}

// cachedDescription returns the cache entry for uri, if any.
func (c *Client) cachedDescription(uri string) (cachedDescription, bool) {
	c.descMu.Lock()
	defer c.descMu.Unlock()
	entry, ok := c.descCache[uri]
	return entry, ok
}

// storeDescription records a validated description under its entity tag,
// evicting an arbitrary entry when the cache is full.
func (c *Client) storeDescription(uri, etag string, desc core.ServiceDescription) {
	c.descMu.Lock()
	defer c.descMu.Unlock()
	if c.descCache == nil {
		c.descCache = make(map[string]cachedDescription)
	}
	if _, ok := c.descCache[uri]; !ok && len(c.descCache) >= maxCachedDescriptions {
		for k := range c.descCache {
			delete(c.descCache, k)
			break
		}
	}
	c.descCache[uri] = cachedDescription{etag: etag, desc: desc}
}

func (c *Client) describeService(ctx context.Context, uri string) (core.ServiceDescription, error) {
	var desc core.ServiceDescription
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, uri, nil)
	if err != nil {
		return desc, fmt.Errorf("client: %w", err)
	}
	cached, haveCached := c.cachedDescription(uri)
	if haveCached {
		req.Header.Set("If-None-Match", cached.etag)
	}
	resp, err := c.do(req)
	if err != nil {
		return desc, fmt.Errorf("client: GET %s: %w", uri, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified && haveCached:
		metDescCacheHits.Inc()
		rest.Drain(resp.Body)
		return cached.desc, nil
	case resp.StatusCode != http.StatusOK:
		return desc, apiError(resp)
	}
	if haveCached {
		metDescCacheStale.Inc()
	} else {
		metDescCacheMisses.Inc()
	}
	if err := json.NewDecoder(resp.Body).Decode(&desc); err != nil {
		return desc, fmt.Errorf("client: decode %s: %w", uri, err)
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.storeDescription(uri, etag, desc)
	}
	return desc, nil
}

// Submit performs POST on the service resource, creating a job.  If wait is
// positive the server holds the request until the job completes or the
// window elapses, enabling the synchronous mode of the unified API.
//
// Through a gateway that leased the service's replicas to the client
// (DESIGN.md §5h.5), a submission is posted straight to a leased replica:
// the one that owns most of the files its inputs reference, else the next
// on the lease.
func (s *Service) Submit(ctx context.Context, inputs core.Values, wait time.Duration) (*core.Job, error) {
	return send[core.Job](ctx, s.client, http.MethodPost, withWait(s.uri, wait), inputs, http.StatusCreated, true)
}

// Job fetches the current representation of a job by URI.
func (s *Service) Job(ctx context.Context, jobURI string) (*core.Job, error) {
	var job core.Job
	if err := s.client.getJSON(ctx, jobURI, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls the job resource (using server-side long-poll windows) until
// the job is terminal or ctx is cancelled.  The server blocks each window
// on the job's completion channel, so the response arrives the instant the
// job finishes — the window length only bounds how often an idle wait
// re-issues the request.
func (s *Service) Wait(ctx context.Context, jobURI string) (*core.Job, error) {
	return poll(ctx, s.client, jobURI, jobDone)
}

// Cancel performs DELETE on the job resource.
func (s *Service) Cancel(ctx context.Context, jobURI string) (*core.Job, error) {
	return send[core.Job](ctx, s.client, http.MethodDelete, jobURI, nil, http.StatusOK, false)
}

// SubmitSweep performs POST on the service's sweep collection, expanding a
// parameter-sweep specification into child jobs in one round trip.  If wait
// is positive the server holds the request until the whole campaign
// completes or the window elapses.
func (s *Service) SubmitSweep(ctx context.Context, spec *core.SweepSpec, wait time.Duration) (*core.Sweep, error) {
	return send[core.Sweep](ctx, s.client, http.MethodPost, withWait(s.uri+"/sweeps", wait), spec, http.StatusCreated, false)
}

// Sweep fetches the current aggregate status of a sweep by URI.  The answer
// is O(1) on the server regardless of width, so polling wide campaigns is
// cheap.
func (s *Service) Sweep(ctx context.Context, sweepURI string) (*core.Sweep, error) {
	var sweep core.Sweep
	if err := s.client.getJSON(ctx, sweepURI, &sweep); err != nil {
		return nil, err
	}
	return &sweep, nil
}

// WaitSweep polls the sweep resource (using server-side long-poll windows,
// like Wait) until every child job is terminal or ctx is cancelled.
func (s *Service) WaitSweep(ctx context.Context, sweepURI string) (*core.Sweep, error) {
	return poll(ctx, s.client, sweepURI, sweepDone)
}

// CancelSweep performs DELETE on the sweep resource, cancelling every
// non-terminal child in one call.
func (s *Service) CancelSweep(ctx context.Context, sweepURI string) (*core.Sweep, error) {
	return send[core.Sweep](ctx, s.client, http.MethodDelete, sweepURI, nil, http.StatusOK, false)
}

// jobDone and sweepDone are the terminal tests the shared wait loops
// (poll, follow) are parameterised by.
func jobDone(j *core.Job) bool     { return j.State.Terminal() }
func sweepDone(s *core.Sweep) bool { return s.State.Terminal() }

// fileRefMarker is how a file reference starts inside an encoded body.
var fileRefMarker = []byte(`"` + core.FileRefPrefix)

// withWait appends a positive server-side wait window to a submit URI.
func withWait(uri string, wait time.Duration) string {
	if wait > 0 {
		return uri + "?wait=" + wait.String()
	}
	return uri
}

// send performs one request on the client, with body (when non-nil)
// encoded as JSON, and decodes an answer with the want status as a T; any
// other status is an *APIError.  submit marks a job submission, whose body
// is its core.Values: it may be placed on a spread lease, by the files it
// references when its encoded body holds `"file:` — the bytes a gateway
// tests before it reads a submission's inputs.
func send[T any](ctx context.Context, c *Client, method, uri string, body any, want int, submit bool) (*T, error) {
	var rd io.Reader
	var p placement
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encode %s body: %w", method, err)
		}
		rd = bytes.NewReader(data)
		p.fresh = submit
		if submit && bytes.Contains(data, fileRefMarker) {
			p.files = body.(core.Values)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, uri, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.doRoute(req, p)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, uri, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return nil, apiError(resp)
	}
	out := new(T)
	if err := decodeBody(resp.Body, out); err != nil {
		return nil, fmt.Errorf("client: decode %s %s: %w", method, uri, err)
	}
	return out, nil
}

// poll long-polls the resource at uri until done reports its
// representation terminal or ctx is cancelled.  A server that ignores the
// wait parameter (or completes the window early) is re-polled no more
// often than the client's MinPoll, jittered (rest.Jitter) so that many
// watchers started together — e.g. a thousand clients following the
// children of one sweep — drift apart instead of phase-locking into
// synchronized poll bursts, and a non-terminal answer never degenerates
// into a zero-delay busy loop.
func poll[T any](ctx context.Context, c *Client, uri string, done func(*T) bool) (*T, error) {
	window := c.waitWindow()
	minPoll := c.minPoll()
	for {
		start := time.Now()
		out := new(T)
		adv, err := c.getJSONWait(ctx, uri+"?wait="+window.String(), out)
		if err != nil {
			return nil, err
		}
		// Respect the server's advertised ceiling: asking for more than
		// Wait-Max only gets clamped, so shrink the next window to match.
		if adv > 0 && adv < window {
			window = adv
		}
		if done(out) {
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if delay := rest.Jitter(minPoll); time.Since(start) < delay {
			t := time.NewTimer(delay - time.Since(start))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
	}
}

// SweepJobs fetches one page of a sweep's child jobs in point order,
// optionally filtered by state ("" = all).  limit 0 returns every matching
// child; the second result is the total match count before paging.
func (s *Service) SweepJobs(ctx context.Context, sweepURI string, state core.JobState, limit, offset int) ([]*core.Job, int, error) {
	uri := fmt.Sprintf("%s/jobs?limit=%d&offset=%d", sweepURI, limit, offset)
	if state != "" {
		uri += "&state=" + string(state)
	}
	var page core.JobPage
	if err := s.client.getJSON(ctx, uri, &page); err != nil {
		return nil, 0, err
	}
	return page.Jobs, page.Total, nil
}

// Call is the convenience synchronous invocation: submit, wait for
// completion and return the outputs, turning job-level failures into
// errors.  The submit long-polls one window (short jobs answer in a
// single round trip); a job still running after that is followed over its
// SSE event stream, with transparent fallback to long-polling.
func (s *Service) Call(ctx context.Context, inputs core.Values) (core.Values, error) {
	job, err := s.Submit(ctx, inputs, s.client.waitWindow())
	if err != nil {
		return nil, err
	}
	if !job.State.Terminal() {
		job, err = s.WaitSSE(ctx, job.URI)
		if err != nil {
			return nil, err
		}
	}
	switch job.State {
	case core.StateDone:
		return job.Outputs, nil
	case core.StateCancelled:
		return nil, fmt.Errorf("client: job %s was cancelled", job.ID)
	default:
		return nil, &JobError{Service: s.uri, JobID: job.ID, Message: job.Error}
	}
}

// JobError reports a job that terminated in the ERROR state.
type JobError struct {
	Service string
	JobID   string
	Message string
}

// Error implements the error interface.
func (e *JobError) Error() string {
	return fmt.Sprintf("client: job %s on %s failed: %s", e.JobID, e.Service, e.Message)
}

// UploadFile posts data to the container's file collection and returns the
// file reference to embed in request parameters.
//
// A body the client can send again — an in-memory reader, or any
// io.Seeker such as an *os.File, from its current offset — is routed
// (DESIGN.md §5h.5): through a gateway it goes to the replica the gateway
// places it on, or straight to a leased one.  Any other reader streams
// through the gateway.
func (c *Client) UploadFile(ctx context.Context, containerBase string, data io.Reader) (string, error) {
	uri := strings.TrimRight(containerBase, "/") + "/files"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, uri, data)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if s, ok := data.(io.ReadSeeker); ok && req.GetBody == nil {
		if err := rewindable(req, s); err != nil {
			return "", fmt.Errorf("client: POST %s: %w", uri, err)
		}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.doRoute(req, placement{fresh: true, upload: true})
	if err != nil {
		return "", fmt.Errorf("client: POST %s: %w", uri, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", apiError(resp)
	}
	var out struct {
		Ref string `json:"ref"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("client: decode upload response: %w", err)
	}
	return out.Ref, nil
}

// rewindable gives req, whose body is s, the ContentLength of what s holds
// from its current offset and a GetBody that seeks back there.  A transport
// may still be reading an earlier attempt's body when the next attempt is
// made (a 307 can answer before the body is sent, and http.Client closes
// the body without waiting for that reader), so GetBody first closes the
// earlier body, which stops its reads, and only then seeks.
func rewindable(req *http.Request, s io.ReadSeeker) error {
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := s.Seek(start, io.SeekStart); err != nil {
		return err
	}
	body := &seekBody{r: s}
	req.Body, req.ContentLength = body, end-start
	req.GetBody = func() (io.ReadCloser, error) {
		body.Close()
		if _, err := s.Seek(start, io.SeekStart); err != nil {
			return nil, err
		}
		body = &seekBody{r: s}
		return body, nil
	}
	return nil
}

// seekBody is one attempt's view of a rewindable upload body.  Once it is
// closed it reads nothing more, so the next attempt owns the reader.
type seekBody struct {
	mu     sync.Mutex
	r      io.Reader
	closed bool
}

func (b *seekBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.r.Read(p)
}

func (b *seekBody) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}

// FetchFile downloads the content behind a file-reference parameter value.
// It buffers the whole file; prefer FetchFileTo for large data.
func (c *Client) FetchFile(ctx context.Context, value any) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.FetchFileTo(ctx, value, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FetchFileTo streams the content behind a file-reference parameter value
// into dst through a pooled copy buffer, returning the number of bytes
// transferred.  The heap cost is O(buffer) regardless of file size.
func (c *Client) FetchFileTo(ctx context.Context, value any, dst io.Writer) (int64, error) {
	ref, ok := core.FileRefID(value)
	if !ok {
		return 0, fmt.Errorf("client: value is not a file reference")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ref, nil)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, fmt.Errorf("client: GET %s: %w", ref, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, apiError(resp)
	}
	n, err := rest.Copy(dst, resp.Body)
	if err != nil {
		return n, fmt.Errorf("client: download %s: %w", ref, err)
	}
	return n, nil
}

// ServiceNames fetches the container index and returns the deployed
// service names.
func (c *Client) ServiceNames(ctx context.Context, containerBase string) ([]string, error) {
	var index struct {
		Services []core.ServiceDescription `json:"services"`
	}
	if err := c.getJSON(ctx, strings.TrimRight(containerBase, "/")+"/", &index); err != nil {
		return nil, err
	}
	names := make([]string, len(index.Services))
	for i, s := range index.Services {
		names[i] = s.Name
	}
	return names, nil
}

// Load fetches a container's load report (GET /load): advertised queue
// depth, worker occupancy and memo cache size, feeding the gateway's
// load-aware placement and admission control.
func (c *Client) Load(ctx context.Context, containerBase string) (core.LoadReport, error) {
	var report core.LoadReport
	err := c.getJSON(ctx, strings.TrimRight(containerBase, "/")+"/load", &report)
	return report, err
}
