package catalogue

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// Sweep metric families (DESIGN.md §5d): how often availability sweeps run,
// how long individual probes take, and how many fail.
var (
	metSweeps = obs.NewCounter("mc_sweeps_total",
		"Availability sweeps executed over the published services.")
	metSweepProbes = obs.NewHistogram("mc_sweep_probe_seconds",
		"Latency of individual availability probes (description fetch).",
		obs.LatencyBuckets)
	metSweepProbeFailures = obs.NewCounter("mc_sweep_probe_failures_total",
		"Availability probes that failed (service marked unavailable).")
)

// Entry is one published service in the catalogue.
type Entry struct {
	// URI is the service resource URI the entry was registered with.
	URI string `json:"uri"`
	// Description is the service description retrieved via the REST API
	// at registration time (and refreshed by the pinger).
	Description core.ServiceDescription `json:"description"`
	// Tags are the publisher's and users' annotations.
	Tags []string `json:"tags,omitempty"`
	// Registered is the publication time.
	Registered time.Time `json:"registered"`
	// Available reports the last ping outcome; unavailable services are
	// marked accordingly in search results.
	Available bool `json:"available"`
	// LastChecked is the time of the last availability probe.
	LastChecked time.Time `json:"lastChecked,omitempty"`
}

// Result is one search result: the entry with a highlighted snippet.
type Result struct {
	URI       string   `json:"uri"`
	Name      string   `json:"name"`
	Title     string   `json:"title,omitempty"`
	Snippet   string   `json:"snippet"`
	Tags      []string `json:"tags,omitempty"`
	Available bool     `json:"available"`
	Score     float64  `json:"score"`
}

// Describer fetches a service description by URI; it is implemented by the
// platform client and substituted in tests.
type Describer interface {
	Describe(ctx context.Context, uri string) (core.ServiceDescription, error)
}

// ClientDescriber adapts the platform client to the Describer interface.
type ClientDescriber struct {
	Client *client.Client
}

// Describe implements Describer.
func (d ClientDescriber) Describe(ctx context.Context, uri string) (core.ServiceDescription, error) {
	cl := d.Client
	if cl == nil {
		// The shared default client keeps one connection pool across all
		// catalogue pings, so periodic availability probes reuse
		// keep-alive connections instead of redialling every service.
		// It also carries the default retry policy, so one dropped
		// connection or transient 503 does not flip a healthy service to
		// "unavailable" in the catalogue.
		cl = client.Default()
	}
	return cl.Service(uri).Describe(ctx)
}

// Default sweep parameters: how many availability probes run concurrently
// and how long one probe may take before it is written off as unavailable.
const (
	defaultSweepWorkers = 8
	defaultProbeTimeout = 10 * time.Second
)

// Catalogue is the service registry with full-text search and monitoring.
type Catalogue struct {
	describer Describer

	mu      sync.RWMutex
	entries map[string]*Entry
	ix      *index

	// sweepWorkers bounds the Ping fan-out; probeTimeout is the per-probe
	// deadline.  Both are guarded by mu (set once, read per sweep).
	sweepWorkers int
	probeTimeout time.Duration

	pingStop chan struct{}
	pingOnce sync.Once

	// jl is the attached write-ahead journal (nil = not journaled); see
	// persist.go.  Set once by AttachJournal before the catalogue serves.
	jl *journal.Journal
}

// New creates a catalogue using the given describer to retrieve service
// descriptions.
func New(d Describer) *Catalogue {
	return &Catalogue{
		describer: d,
		entries:   make(map[string]*Entry),
		ix:        newIndex(),
	}
}

// SetSweepOptions tunes the availability sweep: workers bounds how many
// probes run concurrently, probeTimeout caps each individual probe.  Zero
// values keep the defaults (8 workers, 10 s per probe).
func (c *Catalogue) SetSweepOptions(workers int, probeTimeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepWorkers = workers
	c.probeTimeout = probeTimeout
}

func (c *Catalogue) sweepConfig() (workers int, probeTimeout time.Duration) {
	c.mu.RLock()
	workers, probeTimeout = c.sweepWorkers, c.probeTimeout
	c.mu.RUnlock()
	if workers <= 0 {
		workers = defaultSweepWorkers
	}
	if probeTimeout <= 0 {
		probeTimeout = defaultProbeTimeout
	}
	return workers, probeTimeout
}

// Register publishes a service: the catalogue retrieves its description
// via the unified REST API, indexes it together with the tags, and stores
// the entry.  Re-registering refreshes the description and replaces the
// publisher tags.
func (c *Catalogue) Register(ctx context.Context, uri string, tags []string) (*Entry, error) {
	uri = strings.TrimRight(uri, "/")
	if uri == "" {
		return nil, core.ErrBadRequest("catalogue: empty service URI")
	}
	desc, err := c.describer.Describe(ctx, uri)
	if err != nil {
		return nil, fmt.Errorf("catalogue: retrieve description of %s: %w", uri, err)
	}
	entry := &Entry{
		URI:         uri,
		Description: desc,
		Tags:        normalizeTags(tags),
		Registered:  time.Now(),
		Available:   true,
		LastChecked: time.Now(),
	}
	c.mu.Lock()
	if old, ok := c.entries[uri]; ok {
		entry.Registered = old.Registered
	}
	c.entries[uri] = entry
	c.reindex(entry)
	snapshot := cloneEntry(entry)
	c.mu.Unlock()
	c.logRecord(journal.KindCatRegister, entryRecord{Entry: snapshot})
	return snapshot, nil
}

func normalizeTags(tags []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range tags {
		t = strings.ToLower(strings.TrimSpace(t))
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// document renders the searchable text of an entry.
func document(e *Entry) string {
	var b strings.Builder
	d := e.Description
	b.WriteString(d.Name)
	b.WriteString(" ")
	b.WriteString(d.Title)
	b.WriteString(" ")
	b.WriteString(d.Description)
	for _, p := range append(append([]core.Param{}, d.Inputs...), d.Outputs...) {
		b.WriteString(" ")
		b.WriteString(p.Name)
		b.WriteString(" ")
		b.WriteString(p.Title)
	}
	for _, t := range append(append([]string{}, d.Tags...), e.Tags...) {
		b.WriteString(" ")
		b.WriteString(t)
	}
	return b.String()
}

// reindex re-renders an entry's searchable text and updates the inverted
// index.  The caller must hold c.mu (read or write): entries stored in the
// map are mutated under that lock, so rendering outside it would race with
// concurrent probes and tag updates.  The index takes its own lock and
// never calls back into the catalogue, so nesting it under c.mu is safe.
func (c *Catalogue) reindex(e *Entry) {
	c.ix.Add(e.URI, document(e))
}

// Unregister removes a service from the catalogue.
func (c *Catalogue) Unregister(uri string) error {
	uri = strings.TrimRight(uri, "/")
	c.mu.Lock()
	_, ok := c.entries[uri]
	delete(c.entries, uri)
	if ok {
		c.ix.Remove(uri)
	}
	c.mu.Unlock()
	if !ok {
		return core.ErrNotFound("service", uri)
	}
	c.logRecord(journal.KindCatUnregister, unregisterRecord{URI: uri})
	return nil
}

// Get returns the catalogue entry of a service.
func (c *Catalogue) Get(uri string) (*Entry, error) {
	uri = strings.TrimRight(uri, "/")
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[uri]
	if !ok {
		return nil, core.ErrNotFound("service", uri)
	}
	return cloneEntry(e), nil
}

// AddTags attaches user tags to a published service — the catalogue's
// collaborative Web 2.0 feature.
func (c *Catalogue) AddTags(uri string, tags []string) (*Entry, error) {
	uri = strings.TrimRight(uri, "/")
	c.mu.Lock()
	e, ok := c.entries[uri]
	if !ok {
		c.mu.Unlock()
		return nil, core.ErrNotFound("service", uri)
	}
	e.Tags = normalizeTags(append(append([]string{}, e.Tags...), tags...))
	c.reindex(e)
	snapshot := cloneEntry(e)
	c.mu.Unlock()
	c.logRecord(journal.KindCatRegister, entryRecord{Entry: snapshot})
	return snapshot, nil
}

// List returns all entries, sorted by URI.
func (c *Catalogue) List() []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, cloneEntry(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URI < out[j].URI })
	return out
}

// Size returns the number of published services.
func (c *Catalogue) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// SearchOptions filter search results.
type SearchOptions struct {
	// Tag, when non-empty, restricts results to entries carrying it.
	Tag string
	// OnlyAvailable drops services that failed their last ping.
	OnlyAvailable bool
	// Limit bounds the number of results (0 = 20).
	Limit int
}

// Search runs a full-text query over service descriptions and tags and
// returns ranked results with highlighted snippets.
func (c *Catalogue) Search(query string, opts SearchOptions) []Result {
	limit := opts.Limit
	if limit <= 0 {
		limit = 20
	}
	// Without post-filters the index only needs the top `limit` hits (a
	// partial sort); filters can drop hits after ranking, so they require
	// the full ordered list to fill the page.
	topK := limit
	if opts.Tag != "" || opts.OnlyAvailable {
		topK = 0
	}
	hits := c.ix.SearchTop(query, topK)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var results []Result
	for _, h := range hits {
		e, ok := c.entries[h.DocID]
		if !ok {
			continue
		}
		if opts.Tag != "" && !containsTag(e, opts.Tag) {
			continue
		}
		if opts.OnlyAvailable && !e.Available {
			continue
		}
		text := e.Description.Description
		if text == "" {
			text = e.Description.Title
		}
		results = append(results, Result{
			URI:       e.URI,
			Name:      e.Description.Name,
			Title:     e.Description.Title,
			Snippet:   Snippet(text, query, 160),
			Tags:      e.Tags,
			Available: e.Available,
			Score:     h.Score,
		})
		if len(results) >= limit {
			break
		}
	}
	return results
}

func containsTag(e *Entry, tag string) bool {
	tag = strings.ToLower(tag)
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	for _, t := range e.Description.Tags {
		if strings.ToLower(t) == tag {
			return true
		}
	}
	return false
}

// Ping probes every published service once by retrieving its description
// and updates availability marks.  Probes fan out over a bounded worker
// pool (SetSweepOptions, default 8), and each probe runs under its own
// deadline, so one unresponsive service can neither starve the remaining
// probes nor consume the whole sweep budget.  It returns the number of
// available services.
func (c *Catalogue) Ping(ctx context.Context) int {
	// Every probe of one sweep carries the same request ID, so a sweep's
	// fan-out across N services shows up in each container's log as one
	// correlated group.
	ctx, sweepID := obs.EnsureRequestID(ctx)
	start := time.Now()
	metSweeps.Inc()
	c.mu.RLock()
	uris := make([]string, 0, len(c.entries))
	for uri := range c.entries {
		uris = append(uris, uri)
	}
	c.mu.RUnlock()
	workers, probeTimeout := c.sweepConfig()
	if workers > len(uris) {
		workers = len(uris)
	}
	defer func() {
		obs.Log(ctx, slog.LevelInfo, "availability sweep",
			slog.String("request_id", sweepID),
			slog.Int("services", len(uris)),
			slog.Duration("elapsed", time.Since(start)),
		)
	}()
	if workers <= 1 {
		available := 0
		for _, uri := range uris {
			if c.probe(ctx, uri, probeTimeout) {
				available++
			}
		}
		return available
	}
	var available atomic.Int64
	work := make(chan string)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for uri := range work {
				if c.probe(ctx, uri, probeTimeout) {
					available.Add(1)
				}
			}
		}()
	}
	for _, uri := range uris {
		work <- uri
	}
	close(work)
	wg.Wait()
	return int(available.Load())
}

// probe checks one service and records the outcome, returning whether the
// service answered.
func (c *Catalogue) probe(ctx context.Context, uri string, timeout time.Duration) bool {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	probeStart := time.Now()
	desc, err := c.describer.Describe(pctx, uri)
	metSweepProbes.Observe(time.Since(probeStart).Seconds())
	if err != nil {
		metSweepProbeFailures.Inc()
	}
	cancel()
	c.mu.Lock()
	e, ok := c.entries[uri]
	if ok {
		e.Available = err == nil
		e.LastChecked = time.Now()
		if err == nil {
			e.Description = desc
			c.reindex(e)
		}
	}
	c.mu.Unlock()
	return ok && err == nil
}

// MarkUnavailable records a passive health observation: a caller (the
// federation gateway, a workflow invoker) failed to reach the service just
// now, so its entry is flipped to unavailable without waiting for the next
// sweep.  The next successful probe flips it back.  Unknown URIs are
// ignored — passive signals race with unregistration.
func (c *Catalogue) MarkUnavailable(uri string) {
	uri = strings.TrimRight(uri, "/")
	c.mu.Lock()
	if e, ok := c.entries[uri]; ok {
		e.Available = false
		e.LastChecked = time.Now()
	}
	c.mu.Unlock()
}

// StartPinger launches the periodic availability monitor.  Call Close to
// stop it.  Each probe of a sweep gets its own deadline —
// min(interval/4, 10 s) — so a single hung service cannot eat the whole
// interval and starve the probes queued behind it.
func (c *Catalogue) StartPinger(interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	c.mu.Lock()
	if c.probeTimeout <= 0 {
		perProbe := interval / 4
		if perProbe > defaultProbeTimeout {
			perProbe = defaultProbeTimeout
		}
		c.probeTimeout = perProbe
	}
	c.mu.Unlock()
	c.pingStop = make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				c.Ping(ctx)
				cancel()
			case <-c.pingStop:
				return
			}
		}
	}()
}

// Close stops the pinger if it was started.
func (c *Catalogue) Close() {
	c.pingOnce.Do(func() {
		if c.pingStop != nil {
			close(c.pingStop)
		}
	})
}

func cloneEntry(e *Entry) *Entry {
	out := *e
	out.Tags = append([]string(nil), e.Tags...)
	return &out
}
