package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/rest"
)

// SSE passthrough (DESIGN.md §5h).  The gateway holds ONE upstream SSE
// connection per (replica, stream path) — the pump — regardless of how many
// downstream watchers are attached: a dashboard with a thousand browser
// tabs watching one sweep costs each replica a single connection.  Pumps
// publish upstream frames into the gateway's own events.Bus, whose
// per-topic rings give downstream watchers Last-Event-ID resume in the
// gateway's ID space; each pump separately remembers the last upstream ID
// it saw and resumes its upstream connection with it, so a replica restart
// or move (re-resolved through Options.Resolver) loses no terminal
// transitions.  The two ID spaces never mix: upstream IDs belong to the
// pump, downstream IDs to the bus.
//
// Frame semantics survive the hop unchanged: data frames are full resource
// snapshots, sync frames tell a consumer to re-fetch (the gateway
// re-expands them for resource streams by fetching the resource itself, as
// the container does), and the End marker — carried on the wire as an SSE
// comment line so browsers never see it — terminates pump and watchers.

// ssePump is one shared upstream subscription.
type ssePump struct {
	g    *Gateway
	key  string // replica + "|" + upstream path
	rs   *replicaState
	path string // stream path (incl. /events suffix), upstream and as the downstream bus topic

	cancel context.CancelFunc
	refs   int // guarded by sseMux.mu
}

// sseMux owns the pumps.
type sseMux struct {
	g      *Gateway
	mu     sync.Mutex
	pumps  map[string]*ssePump
	closed bool
}

func newSSEMux(g *Gateway) *sseMux {
	return &sseMux{g: g, pumps: make(map[string]*ssePump)}
}

// ensure attaches a watcher to the pump for (rs, path), starting it if this
// is the first watcher.  The returned release detaches; the last release
// stops the pump.
func (m *sseMux) ensure(rs *replicaState, path string) (release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return func() {}
	}
	key := rs.name + "|" + path
	p := m.pumps[key]
	if p == nil {
		ctx, cancel := context.WithCancel(context.Background())
		p = &ssePump{g: m.g, key: key, rs: rs, path: path, cancel: cancel}
		m.pumps[key] = p
		metGwSSEUpstreams.Add(1)
		m.g.wg.Add(1)
		go p.run(ctx)
	}
	p.refs++
	return func() { m.release(key) }
}

func (m *sseMux) release(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pumps[key]
	if p == nil {
		return // pump already self-removed on End
	}
	p.refs--
	if p.refs <= 0 {
		p.cancel()
		delete(m.pumps, key)
		metGwSSEUpstreams.Add(-1)
	}
}

// remove is the pump's self-removal after a terminal frame: the stream is
// over, so keeping the connection (or restarting it for the next watcher)
// is pointless — a new watcher gets the terminal state from its opening
// snapshot.
func (m *sseMux) remove(p *ssePump) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pumps[p.key] == p {
		p.cancel()
		delete(m.pumps, p.key)
		metGwSSEUpstreams.Add(-1)
	}
}

func (m *sseMux) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for key, p := range m.pumps {
		p.cancel()
		delete(m.pumps, key)
	}
	metGwSSEUpstreams.Set(0)
}

// run is the pump loop: connect upstream, relay frames into the bus,
// reconnect with Last-Event-ID on any interruption.  Reconnects re-resolve
// the replica's address first, so a stream survives its replica moving.
func (p *ssePump) run(ctx context.Context) {
	defer p.g.wg.Done()
	var lastID uint64
	backoff := 100 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for ctx.Err() == nil {
		ended, gone, err := p.attach(ctx, &lastID)
		switch {
		case ended:
			p.g.sse.remove(p)
			return
		case gone:
			// The upstream resource no longer exists (replica restarted and
			// lost it, or it was deleted), or sent a frame too large to
			// relay that a resume would replay: end downstream watchers
			// rather than retrying forever.  Their reconnect starts a fresh
			// pump, which opens upstream without a resume ID.
			p.g.bus.Publish(p.path, events.TypeSync, true, nil)
			p.g.sse.remove(p)
			return
		case err == nil:
			// Clean upstream idle-close: reconnect immediately.
			backoff = 100 * time.Millisecond
			continue
		}
		if ctx.Err() != nil {
			return
		}
		// Connection-level failure: feed passive health, re-resolve the
		// replica (it may have moved), and back off before retrying.
		p.g.markReplicaDown(p.rs, err)
		p.g.ensureBase(p.rs)
		t := time.NewTimer(rest.Jitter(backoff))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// attach opens one upstream connection and relays until it breaks.  It
// returns ended=true after a terminal frame, gone=true when the resource is
// missing upstream or its frame exceeds the scanner's cap, and err!=nil for
// connection-level failures worth backing off on; (false, false, nil) is a
// clean idle-close.
func (p *ssePump) attach(ctx context.Context, lastID *uint64) (ended, gone bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.rs.baseURL()+p.path, nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := p.g.client.Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		rest.Drain(resp.Body)
		return false, true, nil
	case resp.StatusCode != http.StatusOK:
		rest.Drain(resp.Body)
		return false, false, fmt.Errorf("GET %s: %s", p.path, resp.Status)
	}
	if !p.rs.isHealthy() {
		p.g.reviveReplica(p.rs)
	}
	sc := events.NewScanner(resp.Body)
	for {
		ev, err := sc.Next()
		if err != nil {
			// io.EOF is the replica's idle-close; anything else is a broken
			// connection.  Both reconnect, only real errors back off.
			if err == io.EOF {
				return false, false, nil
			}
			if ctx.Err() != nil {
				return false, false, nil
			}
			if errors.Is(err, events.ErrFrameTooLarge) {
				return false, true, nil // the replica is healthy
			}
			return false, false, err
		}
		if ev.ID > 0 {
			*lastID = ev.ID
		}
		p.g.bus.Publish(p.path, ev.Type, ev.End, ev.Data)
		if ev.End {
			return true, false, nil
		}
	}
}

// fetchSnapshot GETs a resource representation from its home replica for an
// opening frame or a sync re-expansion, reporting whether the state is
// terminal.
func (g *Gateway) fetchSnapshot(ctx context.Context, rs *replicaState, path string) (data []byte, terminal bool, err error) {
	fctx, cancel := context.WithTimeout(ctx, g.fanout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, rs.baseURL()+path, nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		g.markReplicaDown(rs, err)
		return nil, false, fmt.Errorf("gateway: replica %s unreachable: %w", rs.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusNotFound {
			_, seg := splitResource(path)
			return nil, false, core.ErrNotFound("resource", seg)
		}
		return nil, false, fmt.Errorf("gateway: GET %s: %s: %s", path, resp.Status, body)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, rest.MaxBodyBytes))
	if err != nil {
		return nil, false, err
	}
	var state struct {
		State core.JobState `json:"state"`
	}
	_ = json.Unmarshal(data, &state)
	return data, state.State.Terminal(), nil
}

// splitResource splits "/services/x/jobs/id/events" into the resource path
// ("/services/x/jobs/id") and its final ID segment.
func splitResource(streamPath string) (resource, id string) {
	resource = strings.TrimSuffix(streamPath, "/events")
	return resource, resource[strings.LastIndexByte(resource, '/')+1:]
}

// serveResourceStream streams one job or sweep resource to a downstream
// watcher: opening snapshot (fetched live from the home replica), then
// relayed transitions from the shared pump, ending on the terminal frame.
// kind is the SSE event type ("job" or "sweep").
func (g *Gateway) serveResourceStream(w http.ResponseWriter, r *http.Request, rs *replicaState, kind string) {
	streamPath := r.URL.EscapedPath()
	resourcePath, _ := splitResource(streamPath)
	events.Serve(w, r, events.Stream{
		Bus:    g.bus,
		Topic:  streamPath,
		Type:   kind,
		Attach: func() func() { return g.attachWatcher(streamPath, rs) },
		Snapshot: func() ([]byte, uint64, bool, error) {
			// A replica's representation says nothing of the gateway's
			// own event IDs, so it covers none of them.
			data, end, err := g.fetchSnapshot(r.Context(), rs, resourcePath)
			return data, 0, end, err
		},
		Idle: g.maxWait,
	})
}

// serveServiceFeed streams the merged activity feed of a service: the pumps
// of every healthy replica advertising it publish into one gateway topic.
// Per-replica upstream IDs cannot survive a merge, so resume runs entirely
// in the gateway's ID space (the bus ring).
func (g *Gateway) serveServiceFeed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet { // 405 precedes the replica check's 502
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	service := r.PathValue("name")
	candidates := g.serviceReplicas(service)
	if len(candidates) == 0 {
		g.noReplica(w, service)
		return
	}
	// The opening frame mirrors the container's hello.
	hello, _ := json.Marshal(map[string]string{"service": service, "change": "watch"})
	path := r.URL.EscapedPath()
	events.Serve(w, r, events.Stream{
		Bus:    g.bus,
		Topic:  path,
		Type:   events.TypeService,
		Attach: func() func() { return g.attachWatcher(path, candidates...) },
		Hello:  hello,
		Idle:   g.maxWait,
	})
}

// attachWatcher counts one downstream watcher and joins it to the pump of
// each replica for the stream path, starting pumps that are not running.
// The returned release undoes both.
func (g *Gateway) attachWatcher(path string, replicas ...*replicaState) (release func()) {
	metGwSSEWatchers.Add(1)
	releases := make([]func(), len(replicas))
	for i, rs := range replicas {
		releases[i] = g.sse.ensure(rs, path)
	}
	return func() {
		for _, rel := range releases {
			rel()
		}
		metGwSSEWatchers.Add(-1)
	}
}
