// Package gateway implements the federated routing tier of the platform
// (DESIGN.md §5h): one thin process (cmd/mcgw) exposing the unified REST API
// of Table 1 unchanged while fanning requests out over N container replicas.
//
// Routing is stateless by construction.  Every replica runs with a replica
// identity (container.Options.ReplicaID), so each job, sweep and file ID it
// mints carries its home replica as an affinity prefix ("r03-<id>",
// core.TagID).  A request about an existing resource therefore routes in
// O(1) — parse the prefix, forward — with no shared lookup table, no session
// state, and no coordination between gateway instances.  Requests that
// create resources are spread across healthy replicas advertising the
// service, except that a deterministic job goes to its digest home — a
// rendezvous hash every gateway computes alike, so identical submissions
// through any gateway meet in one replica's computation cache.
//
// Replica health is fed by catalogue pings: the gateway registers every
// (replica, service) pair in an embedded catalogue.Catalogue whose periodic
// availability sweeps (bounded fan-out, per-probe deadlines) maintain the
// marks placement consults, complemented by a passive path that marks a
// replica down the moment a proxied request fails to reach it.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/catalogue"
	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// Replica names one container replica of the federation.
type Replica struct {
	// Name is the replica identity, matching the container's
	// Options.ReplicaID (core.ValidReplicaName).
	Name string
	// BaseURL is the replica's externally reachable base URL as seen from
	// the gateway.
	BaseURL string
}

// Options configure a gateway.
type Options struct {
	// Replicas is the federation membership.  The set is fixed for the
	// gateway's lifetime; a replica that moves is re-resolved through
	// Resolver.
	Replicas []Replica
	// HTTPClient performs proxied requests; nil uses a client over the
	// shared tuned transport with no overall timeout (long-polls and file
	// streams must be able to outlive any fixed budget; request contexts
	// bound them instead).
	HTTPClient *http.Client
	// PingInterval paces the health loop: the replica index refresh and the
	// catalogue availability sweeps.  Zero selects the default (5s); a
	// negative value disables the background loop (tests drive
	// RefreshHealth explicitly).
	PingInterval time.Duration
	// FanoutTimeout is the per-replica deadline of scatter-gather requests
	// and health probes (default 5s).  A replica that cannot answer inside
	// it contributes a Warning header instead of stalling the response.
	FanoutTimeout time.Duration
	// MaxWaitWindow caps the idle window of gateway SSE streams, mirroring
	// the container option.  Zero selects the default (60s); negative
	// removes the cap.
	MaxWaitWindow time.Duration
	// LoadInterval paces the load loop: each tick polls every replica's
	// /load report, feeding power-of-two-choices placement and admission
	// control.  Zero selects the default (2s); a negative value disables
	// the background loop (tests drive RefreshLoad explicitly).
	LoadInterval time.Duration
	// Resolver, when non-nil, re-resolves the base URL of a named replica
	// that stopped answering at its last known address (a rescheduled
	// container).  It is consulted before routing to an unhealthy replica
	// and on every SSE reconnect.
	Resolver func(name string) (baseURL string, ok bool)
	// Logger receives gateway lifecycle logs; nil uses log.Default.
	Logger *log.Logger
}

// replicaState is the gateway's view of one replica.
type replicaState struct {
	name string

	mu      sync.RWMutex
	base    string
	healthy bool
	// services is the replica's advertised service set from its last index
	// fetch, by name.
	services map[string]core.ServiceDescription
	checked  time.Time
	// load is the replica's last advertised load report (loadOK false until
	// the first successful poll).
	load   core.LoadReport
	loadOK bool

	requests *requestCounters
}

func (rs *replicaState) baseURL() string {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.base
}

func (rs *replicaState) isHealthy() bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.healthy
}

// loadReport returns the replica's last advertised load, reporting whether
// one has been received.
func (rs *replicaState) loadReport() (core.LoadReport, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.load, rs.loadOK
}

// queueDepth is the placement signal: the replica's advertised queued-job
// count, 0 until the first load poll (an unknown replica looks idle, so it
// is probed with work rather than starved).
func (rs *replicaState) queueDepth() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if !rs.loadOK {
		return 0
	}
	return rs.load.QueueDepth
}

// deterministic reports whether the replica advertises service as
// deterministic, without copying its description.
func (rs *replicaState) deterministic(service string) bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.services[service].Deterministic
}

// countRequest records one request sent or routed to the replica: code is
// its upstream status, 0 when the replica was not reached.
func (rs *replicaState) countRequest(route routeClass, code int) {
	switch {
	case code == 0:
		rs.requests[route][codeError].Inc()
	case code >= 100 && code < 600:
		rs.requests[route][code/100-1].Inc()
	default:
		metGwRequests.With(route.String(), rs.name, statusClass(code)).Inc()
	}
}

// describe returns the replica's advertised description of one service.
func (rs *replicaState) describe(service string) (core.ServiceDescription, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	d, ok := rs.services[service]
	return d, ok
}

// serviceURI is the catalogue registration key of one service on this
// replica: the service resource at the replica's current base.
func (rs *replicaState) serviceURI(service string) string {
	return rs.baseURL() + "/services/" + service
}

// Gateway routes the unified REST API across container replicas.
type Gateway struct {
	client     *http.Client
	api        *client.Client
	fanout     time.Duration
	maxWait    time.Duration
	resolver   func(string) (string, bool)
	logger     *log.Logger
	cat        *catalogue.Catalogue
	bus        *events.Bus
	sse        *sseMux
	replicas   []*replicaState // fixed order (Options.Replicas)
	byName     map[string]*replicaState
	rrCursor   atomic.Uint64 // job and sweep spread
	upCursor   atomic.Uint64 // upload spread
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
	pingEvery  time.Duration
	loadEvery  time.Duration
	healthOnce sync.Mutex // serializes RefreshHealth sweeps
	loadOnce   sync.Mutex // serializes RefreshLoad sweeps

	// topoGen counts topology changes (health marks, service sets); the
	// per-service candidate cache is invalidated by generation, so steady
	// state placement never rescans and re-sorts the replica list.
	topoGen   atomic.Uint64
	candMu    sync.Mutex
	candCache map[string]*candEntry
	// upEntry is the candidate-cache entry of uploads: every healthy
	// replica, in configuration order, and their spread lease.
	upEntry atomic.Pointer[candEntry]
}

// defaultMaxWaitWindow mirrors the container default for SSE idle streams.
const defaultMaxWaitWindow = 60 * time.Second

// New creates a gateway over the given replica set and runs one synchronous
// health sweep, so placement works the moment it returns.
func New(opts Options) (*Gateway, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	httpClient := opts.HTTPClient
	if httpClient == nil {
		// No overall timeout: proxied long-polls and file streams are
		// bounded by their request contexts, not by a fixed budget.
		httpClient = &http.Client{Transport: rest.SharedTransport}
	}
	fanout := opts.FanoutTimeout
	if fanout <= 0 {
		fanout = 5 * time.Second
	}
	maxWait := opts.MaxWaitWindow
	if maxWait == 0 {
		maxWait = defaultMaxWaitWindow
	} else if maxWait < 0 {
		maxWait = 0
	}
	g := &Gateway{
		client:    httpClient,
		api:       &client.Client{HTTP: httpClient},
		fanout:    fanout,
		maxWait:   maxWait,
		resolver:  opts.Resolver,
		logger:    logger,
		bus:       events.NewBus(events.Options{}),
		byName:    make(map[string]*replicaState, len(opts.Replicas)),
		candCache: make(map[string]*candEntry),
		stop:      make(chan struct{}),
		pingEvery: opts.PingInterval,
		loadEvery: opts.LoadInterval,
	}
	// The catalogue probes replica service resources over HTTP through the
	// gateway's own proxy client, so its availability marks reflect exactly
	// the path proxied requests will take.
	g.cat = catalogue.New(catalogue.ClientDescriber{Client: &client.Client{HTTP: httpClient}})
	g.sse = newSSEMux(g)
	for _, r := range opts.Replicas {
		if !core.ValidReplicaName(r.Name) {
			return nil, fmt.Errorf("gateway: invalid replica name %q (want 1-16 of [a-z0-9])", r.Name)
		}
		if _, dup := g.byName[r.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate replica name %q", r.Name)
		}
		rs := &replicaState{
			name:     r.Name,
			base:     trimBase(r.BaseURL),
			services: make(map[string]core.ServiceDescription),
			requests: resolveRequestCounters(r.Name),
		}
		g.replicas = append(g.replicas, rs)
		g.byName[r.Name] = rs
	}
	g.RefreshHealth(context.Background())
	g.RefreshLoad(context.Background())
	interval := opts.PingInterval
	if interval == 0 {
		interval = 5 * time.Second
	}
	if interval > 0 {
		probeTimeout := fanout
		if probeTimeout > interval {
			probeTimeout = interval
		}
		g.cat.SetSweepOptions(0, probeTimeout)
		g.cat.StartPinger(interval)
		g.wg.Add(1)
		go g.healthLoop(interval)
	}
	loadEvery := opts.LoadInterval
	if loadEvery == 0 {
		loadEvery = 2 * time.Second
	}
	if loadEvery > 0 {
		g.loadEvery = loadEvery
		g.wg.Add(1)
		go g.loadLoop(loadEvery)
	}
	return g, nil
}

func trimBase(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Close stops the health loop, the catalogue pinger and every SSE pump, and
// releases all downstream event streams.  The pumps are cancelled before
// the wait, since a pump only exits on its own when its watchers leave.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.sse.close()
	g.wg.Wait()
	g.cat.Close()
	g.bus.Close()
}

func (g *Gateway) healthLoop(interval time.Duration) {
	defer g.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			g.RefreshHealth(ctx)
			cancel()
		case <-g.stop:
			return
		}
	}
}

// loadLoop pulls every replica's load report at LoadInterval cadence.
func (g *Gateway) loadLoop(interval time.Duration) {
	defer g.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			g.RefreshLoad(ctx)
			cancel()
		case <-g.stop:
			return
		}
	}
}

// RefreshLoad polls every healthy replica's GET /load once, concurrently,
// feeding the placement policy's queue-depth view and admission control.  A
// replica that fails the poll keeps its last load report but is marked
// load-unknown, so placement treats it as idle rather than pinning traffic
// elsewhere.
func (g *Gateway) RefreshLoad(ctx context.Context) {
	g.loadOnce.Lock()
	defer g.loadOnce.Unlock()
	var wg sync.WaitGroup
	for _, rs := range g.replicas {
		if !rs.isHealthy() {
			continue
		}
		wg.Add(1)
		go func(rs *replicaState) {
			defer wg.Done()
			g.pollReplicaLoad(ctx, rs)
		}(rs)
	}
	wg.Wait()
}

// pollReplicaLoad performs one replica's load poll.
func (g *Gateway) pollReplicaLoad(ctx context.Context, rs *replicaState) {
	pctx, cancel := context.WithTimeout(ctx, g.fanout)
	defer cancel()
	report, err := g.api.Load(pctx, rs.baseURL())
	rs.mu.Lock()
	if err != nil {
		rs.loadOK = false
	} else {
		rs.load = report
		rs.loadOK = true
	}
	rs.mu.Unlock()
}

// indexDoc is the container index representation the health sweep consumes.
type indexDoc struct {
	Container string                    `json:"container"`
	Replica   string                    `json:"replica"`
	Services  []core.ServiceDescription `json:"services"`
}

// RefreshHealth probes every replica's index once, concurrently with
// per-replica deadlines, updating health marks, advertised service sets and
// the catalogue registrations placement and search consult.  It is the
// active half of health; proxy failures feed the passive half
// (markReplicaDown) between sweeps.
func (g *Gateway) RefreshHealth(ctx context.Context) {
	g.healthOnce.Lock()
	defer g.healthOnce.Unlock()
	var wg sync.WaitGroup
	for _, rs := range g.replicas {
		wg.Add(1)
		go func(rs *replicaState) {
			defer wg.Done()
			g.probeReplica(ctx, rs)
		}(rs)
	}
	wg.Wait()
	healthy := 0
	for _, rs := range g.replicas {
		if rs.isHealthy() {
			healthy++
		}
	}
	metGwHealthy.Set(float64(healthy))
}

// probeReplica fetches one replica's index and reconciles the gateway's view
// of it.
func (g *Gateway) probeReplica(ctx context.Context, rs *replicaState) {
	pctx, cancel := context.WithTimeout(ctx, g.fanout)
	defer cancel()
	base := rs.baseURL()
	doc, err := g.fetchIndex(pctx, base)
	if err != nil && g.resolver != nil {
		// The replica may have moved; ask the resolver for its current
		// address and retry once.
		if newBase, ok := g.resolver(rs.name); ok && trimBase(newBase) != base {
			base = trimBase(newBase)
			doc, err = g.fetchIndex(pctx, base)
		}
	}
	now := time.Now()
	if err != nil {
		rs.mu.Lock()
		wasHealthy := rs.healthy
		rs.healthy = false
		rs.checked = now
		stale := make([]string, 0, len(rs.services))
		for name := range rs.services {
			stale = append(stale, name)
		}
		rs.mu.Unlock()
		if wasHealthy {
			g.topoGen.Add(1)
			g.logger.Printf("gateway: replica %s unreachable: %v", rs.name, err)
		}
		for _, name := range stale {
			g.cat.MarkUnavailable(rs.serviceURI(name))
		}
		return
	}
	services := make(map[string]core.ServiceDescription, len(doc.Services))
	for _, d := range doc.Services {
		services[d.Name] = d
	}
	rs.mu.Lock()
	moved := rs.base != base
	rs.base = base
	old := rs.services
	rs.services = services
	wasHealthy := rs.healthy
	rs.healthy = true
	rs.checked = now
	rs.mu.Unlock()
	// A move changes the bases that spread leases name.
	changed := !wasHealthy || moved || len(old) != len(services)
	if !changed {
		for name := range services {
			if _, known := old[name]; !known {
				changed = true
				break
			}
		}
	}
	if changed {
		g.topoGen.Add(1)
	}
	// Reconcile catalogue registrations: new services are published (the
	// catalogue fetches and indexes their full description), departed ones
	// are withdrawn.  Existing entries are refreshed by the catalogue's own
	// availability sweeps.
	for name := range services {
		if _, known := old[name]; !known {
			if _, err := g.cat.Register(ctx, rs.serviceURI(name), []string{rs.name}); err != nil {
				g.logger.Printf("gateway: register %s/%s: %v", rs.name, name, err)
			}
		}
	}
	for name := range old {
		if _, still := services[name]; !still {
			_ = g.cat.Unregister(rs.serviceURI(name))
		}
	}
}

func (g *Gateway) fetchIndex(ctx context.Context, base string) (*indexDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		rest.Drain(resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/: %s", base, resp.Status)
	}
	var doc indexDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET %s/: %w", base, err)
	}
	return &doc, nil
}

// markReplicaDown is the passive health path: a proxied request failed to
// reach the replica, so placement must stop sending work there before the
// next active sweep notices.
func (g *Gateway) markReplicaDown(rs *replicaState, err error) {
	rs.mu.Lock()
	wasHealthy := rs.healthy
	rs.healthy = false
	rs.checked = time.Now()
	names := make([]string, 0, len(rs.services))
	for name := range rs.services {
		names = append(names, name)
	}
	rs.mu.Unlock()
	metGwProxyErrors.With(rs.name).Inc()
	if wasHealthy {
		g.topoGen.Add(1)
		g.logger.Printf("gateway: marking replica %s down: %v", rs.name, err)
		for _, name := range names {
			g.cat.MarkUnavailable(rs.serviceURI(name))
		}
	}
}

// reviveReplica is the optimistic counterpart: an affinity-routed request to
// a replica marked down succeeded after all (the mark was stale), so
// placement may use it again.
func (g *Gateway) reviveReplica(rs *replicaState) {
	rs.mu.Lock()
	was := rs.healthy
	rs.healthy = true
	rs.checked = time.Now()
	rs.mu.Unlock()
	if !was {
		g.topoGen.Add(1)
		g.logger.Printf("gateway: replica %s answered again", rs.name)
	}
}

// Replicas reports the gateway's current view of the federation, in
// configuration order.
type ReplicaStatus struct {
	Name     string    `json:"name"`
	BaseURL  string    `json:"baseURL"`
	Healthy  bool      `json:"healthy"`
	Services []string  `json:"services"`
	Checked  time.Time `json:"lastChecked"`
}

// Replicas returns the health view served at GET /replicas.
func (g *Gateway) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(g.replicas))
	for _, rs := range g.replicas {
		rs.mu.RLock()
		st := ReplicaStatus{
			Name:    rs.name,
			BaseURL: rs.base,
			Healthy: rs.healthy,
			Checked: rs.checked,
		}
		for name := range rs.services {
			st.Services = append(st.Services, name)
		}
		rs.mu.RUnlock()
		sort.Strings(st.Services)
		out = append(out, st)
	}
	return out
}

// Handler returns the gateway's HTTP handler with the standard ingress
// instrumentation (request IDs, per-route metrics, request logs) — the same
// middleware the container uses, so one /metrics view covers both tiers.
func (g *Gateway) Handler() http.Handler {
	return obs.Instrument(g.APIHandler())
}
