// Package container implements Everest, the MathCloud service container: a
// high-level framework for development and deployment of computational web
// services exposing the unified REST API.
//
// The container mirrors the architecture of the paper's Fig. 1.  The
// Service Manager maintains the list of deployed services and their
// configuration (a public description plus an internal adapter
// configuration).  The Job Manager converts incoming requests into
// asynchronous jobs placed in a queue served by a configurable pool of
// handler goroutines.  Jobs are processed by pluggable adapters.  Each
// deployed service is published through the REST API of Table 1, and a
// complementary web interface is generated automatically.
package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/journal"
	"mathcloud/internal/rest"
)

// Guard authenticates requests and authorizes access to services.  It is
// implemented by internal/security; a nil Guard leaves the container open.
type Guard interface {
	// Authenticate extracts the client principal from the request.  An
	// error means the request carries no acceptable credentials.
	Authenticate(r *http.Request) (core.Principal, error)
	// Authorize decides whether the principal may access the service,
	// including the delegation check for proxied requests.
	Authorize(p core.Principal, service string) error
}

// AdapterSpec selects and configures the adapter of one service.
type AdapterSpec struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config"`
}

// ServiceConfig is the full configuration of one deployed service: the
// public description provided to clients, and the internal adapter
// configuration used during request processing.
type ServiceConfig struct {
	Description core.ServiceDescription `json:"description"`
	Adapter     AdapterSpec             `json:"adapter"`
}

// Options configure a container.
type Options struct {
	// DataDir is the directory for file resources and job scratch
	// space.  Empty means a fresh temporary directory.
	DataDir string
	// Workers sets the handler pool size (default 4).
	Workers int
	// QueueSize bounds the job queue (default 1024).
	QueueSize int
	// DefaultJobDeadline bounds the execution time of every job whose
	// service description does not set its own Deadline.  A job that
	// overruns terminates in the ERROR state with a timeout message.
	// Zero means no default deadline.
	DefaultJobDeadline time.Duration
	// MemoMaxEntries and MemoMaxBytes bound the computation cache serving
	// services that declare "deterministic": true — repeat submissions of
	// identical requests return DONE instantly with cached outputs, and
	// concurrent identical submissions share one adapter execution.
	// Zero selects the defaults (4096 entries, 256 MiB); a negative value
	// disables the cache.
	MemoMaxEntries int
	MemoMaxBytes   int64
	// BatchMaxSize bounds adapter micro-batching: a handler drains up to
	// this many queued jobs of one service declaring "batch": true into a
	// single InvokeBatch call.  Zero selects the default (16); a value
	// below 2 disables batching.
	BatchMaxSize int
	// MaxSweepWidth caps the number of child jobs one parameter sweep may
	// expand to.  Zero selects the default (10000); a negative value
	// removes the cap.
	MaxSweepWidth int
	// MaxWaitWindow caps server-side blocking: the ?wait= long-poll window
	// and the idle timeout of SSE event streams.  Requests asking for more
	// are clamped, and the effective ceiling is advertised through the
	// Wait-Max response header so well-behaved clients stop over-asking.
	// Zero selects the default (60s); a negative value removes the cap.
	MaxWaitWindow time.Duration
	// ReplicaID names this container within a federated deployment (e.g.
	// "r03").  When set, every job, sweep and file identifier the container
	// mints carries the name as an affinity prefix ("r03-<id>"), responses
	// carry an X-MC-Replica header, and a routing gateway (internal/gateway)
	// can dispatch resource requests to their home replica statelessly.
	// Must satisfy core.ValidReplicaName; empty keeps bare IDs.
	ReplicaID string
	// JournalDir enables the durability subsystem (DESIGN.md §5i): every
	// control-plane mutation — job lifecycle transitions, sweep membership,
	// file-store references, memo entries — is appended to a write-ahead
	// journal rooted at this directory, and Recover rebuilds the container
	// state from it after a restart.  Empty disables journaling entirely;
	// the hot path then carries no durability cost.  Pair it with a stable
	// DataDir: recovered state references blobs under DataDir/files.
	JournalDir string
	// WALSync selects the journal durability mode (off, batch, always);
	// meaningful only with JournalDir set.
	WALSync journal.SyncMode
	// SnapshotInterval is the period of the background journal checkpoint
	// (snapshot + log truncation) started by Recover.  Zero selects the
	// default (1 minute); a negative value disables periodic checkpoints.
	SnapshotInterval time.Duration
	// SnapshotBytes additionally triggers a checkpoint whenever the live
	// (un-truncated) journal bytes exceed this threshold, so write-heavy
	// campaigns are compacted by size rather than waiting out the period.
	// Zero disables the size trigger.
	SnapshotBytes int64
	// JobTTL is the UWS-style default destruction TTL: a terminal job (or
	// sweep) is purged together with its file resources this long after it
	// finishes.  Zero keeps results until an explicit DELETE.  Requests
	// override it per job (?destruction=) and per sweep (the spec's
	// destruction field).
	JobTTL time.Duration
	// Guard enables the security mechanism; nil leaves the container
	// open to all clients.
	Guard Guard
	// Logger receives request and lifecycle logs; nil uses log.Default.
	Logger *log.Logger
	// Adapters supplies the adapter registry; nil uses a fresh registry
	// with the built-in command/native/script adapters.
	Adapters *adapter.Registry
	// HTTPClient performs remote file staging; nil uses a client over the
	// shared tuned transport (rest.SharedTransport) so staging reuses
	// keep-alive connections across jobs and containers.
	HTTPClient *http.Client
}

type service struct {
	desc    core.ServiceDescription
	adapter adapter.Interface
	// descJSON and descETag are the precomputed JSON representation of the
	// description (URI filled in at the current base URL) and its
	// content-hash entity tag.  Descriptions are immutable between Deploy
	// and SetBaseURL, so GET /services/{name} serves these bytes verbatim
	// and answers If-None-Match revalidations with 304.
	descJSON []byte
	descETag string
	// jobsURI is the URI of the service's job collection with its trailing
	// slash, rebuilt with the description cache.
	jobsURI string
}

// renderDescCache serializes a description (with the given absolute URI)
// exactly as rest.WriteJSON would and derives its entity tag from a content
// hash.  A marshalling failure leaves the cache empty; the handler then
// falls back to dynamic encoding.
func renderDescCache(d core.ServiceDescription, uri string) ([]byte, string) {
	d.URI = uri
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		return nil, ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), `"` + hex.EncodeToString(sum[:8]) + `"`
}

// refreshDescCacheLocked recomputes the cached representation of one
// service.  Callers must hold c.mu.
func (c *Container) refreshDescCacheLocked(svc *service) {
	uri := c.serviceURILocked(svc.desc.Name)
	svc.descJSON, svc.descETag = renderDescCache(svc.desc, uri)
	svc.jobsURI = uri + "/jobs/"
}

// Container is a running Everest instance.
type Container struct {
	registry   *adapter.Registry
	files      *FileStore
	jobs       *JobManager
	events     *events.Bus
	maxWait    time.Duration
	waitMax    []string // the Wait-Max header value, nil without a cap
	guard      Guard
	logger     *log.Logger
	httpClient *http.Client
	workRoot   string
	dataDir    string
	ownsData   bool
	replicaID  string
	// idsPlain reports that the IDs this container mints need no JSON
	// escaping: their random part never does, so their replica prefix
	// decides.
	idsPlain bool
	// journal is the write-ahead log of the durability subsystem (nil when
	// Options.JournalDir is empty); Recover starts its checkpoint loop with
	// the snapshot triggers below.
	journal      *journal.Journal
	snapInterval time.Duration
	snapBytes    int64
	// commits is held shared by each job commit (with journaling on) from
	// its append until the job is visible, and exclusively by Checkpoint
	// between its cut and its fold, so the fold sees what the cut keeps.
	commits sync.RWMutex

	// fetchMu/fetches singleflight cross-replica file pulls: concurrent
	// consumers of one foreign file ID trigger a single blob transfer.
	fetchMu sync.Mutex
	fetches map[string]*fetchFlight

	mu       sync.RWMutex
	services map[string]*service
	baseURL  string
}

// New creates a container with the given options.
func New(opts Options) (*Container, error) {
	if opts.ReplicaID != "" && !core.ValidReplicaName(opts.ReplicaID) {
		return nil, fmt.Errorf("container: invalid replica ID %q (want 1-16 of [a-z0-9])", opts.ReplicaID)
	}
	dataDir := opts.DataDir
	ownsData := false
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "everest-")
		if err != nil {
			return nil, fmt.Errorf("container: %w", err)
		}
		dataDir = dir
		ownsData = true
	}
	files, err := NewFileStore(filepath.Join(dataDir, "files"))
	if err != nil {
		return nil, err
	}
	files.SetIDPrefix(opts.ReplicaID)
	workRoot := filepath.Join(dataDir, "work")
	if err := os.MkdirAll(workRoot, 0o700); err != nil {
		return nil, fmt.Errorf("container: %w", err)
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	registry := opts.Adapters
	if registry == nil {
		registry = adapter.NewRegistry()
	}
	httpClient := opts.HTTPClient
	if httpClient == nil {
		// Staging streams arbitrarily large files, so the overall timeout
		// is generous; job contexts cancel hung transfers.
		httpClient = rest.NewHTTPClient(5 * time.Minute)
	}
	c := &Container{
		registry:   registry,
		files:      files,
		guard:      opts.Guard,
		logger:     logger,
		httpClient: httpClient,
		workRoot:   workRoot,
		dataDir:    dataDir,
		ownsData:   ownsData,
		replicaID:  opts.ReplicaID,
		idsPlain:   core.PlainString(opts.ReplicaID),
		services:   make(map[string]*service),
	}
	memoEntries := opts.MemoMaxEntries
	if memoEntries == 0 {
		memoEntries = defaultMemoEntries
	}
	memoBytes := opts.MemoMaxBytes
	if memoBytes == 0 {
		memoBytes = defaultMemoBytes
	}
	batchMax := opts.BatchMaxSize
	if batchMax == 0 {
		batchMax = defaultBatchMaxSize
	}
	sweepWidth := opts.MaxSweepWidth
	if sweepWidth == 0 {
		sweepWidth = defaultMaxSweepWidth
	} else if sweepWidth < 0 {
		sweepWidth = 0 // no cap
	}
	c.maxWait = opts.MaxWaitWindow
	if c.maxWait == 0 {
		c.maxWait = defaultMaxWaitWindow
	} else if c.maxWait < 0 {
		c.maxWait = 0 // no cap
	}
	if c.maxWait > 0 {
		c.waitMax = []string{c.maxWait.String()}
	}
	if opts.JournalDir != "" {
		jl, err := journal.Open(opts.JournalDir, journal.Options{Mode: opts.WALSync})
		if err != nil {
			if ownsData {
				_ = os.RemoveAll(dataDir)
			}
			return nil, fmt.Errorf("container: %w", err)
		}
		c.journal = jl
		files.logRecord = c.logRecord
		c.snapInterval = opts.SnapshotInterval
		c.snapBytes = opts.SnapshotBytes
	}
	c.events = events.NewBus(events.Options{})
	c.jobs = newJobManager(c, jobManagerConfig{
		workers:       opts.Workers,
		queueSize:     opts.QueueSize,
		deadline:      opts.DefaultJobDeadline,
		memoEntries:   memoEntries,
		memoBytes:     memoBytes,
		batchMax:      batchMax,
		maxSweepWidth: sweepWidth,
		jobTTL:        opts.JobTTL,
	})
	return c, nil
}

// Close shuts down the worker pool and removes container-owned data.
func (c *Container) Close() {
	unregisterLocal(c.BaseURL(), c)
	// A shutdown is not a client cancel.  The journal closes first (its
	// checkpoint loop stops before it), so the CANCELLED transitions of the
	// job manager's shutdown are never journaled: a restart re-drives every
	// accepted non-terminal job, exactly as after kill -9.
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			c.logger.Printf("container: journal close: %v", err)
		}
	}
	c.jobs.Close()
	// The job manager drained first, so its terminal transitions reached
	// the bus; closing the bus now releases every remaining event stream.
	c.events.Close()
	if c.ownsData {
		_ = os.RemoveAll(c.dataDir)
	}
}

// Events exposes the container's event bus — the push-based complement to
// polling the REST resources (DESIGN.md §5g).
func (c *Container) Events() *events.Bus { return c.events }

// ReplicaID returns the container's federated identity ("" outside a
// federation).
func (c *Container) ReplicaID() string { return c.replicaID }

// newID mints one resource identifier, carrying the replica affinity prefix
// when the container is part of a federation.
func (c *Container) newID() string { return core.TagID(c.replicaID, core.NewID()) }

// defaultMaxWaitWindow caps blocking GETs and SSE idle time unless
// Options.MaxWaitWindow overrides it: long enough for real long-polling,
// short enough that an abandoned ?wait=24h cannot pin a goroutine all day.
const defaultMaxWaitWindow = 60 * time.Second

// clampWait bounds a client-requested wait window by MaxWaitWindow.
func (c *Container) clampWait(d time.Duration) time.Duration {
	if c.maxWait > 0 && d > c.maxWait {
		return c.maxWait
	}
	return d
}

// advertiseWaitMax announces the server's wait ceiling on a response so
// clients shrink their requested windows instead of being silently
// clamped.  The value is built once: WaitMaxHeader is in canonical form,
// and the shared slice has capacity one, so an Add on a response appends
// to a copy.
func (c *Container) advertiseWaitMax(h http.Header) {
	if c.waitMax != nil {
		h[rest.WaitMaxHeader] = c.waitMax
	}
}

// notifyService publishes a deploy/undeploy notice on the service feed.
func (c *Container) notifyService(name, change string) {
	if !c.events.Active(events.ServiceTopic(name)) {
		return
	}
	data, err := json.Marshal(map[string]string{"service": name, "change": change})
	if err != nil {
		return
	}
	c.events.Publish(events.ServiceTopic(name), events.TypeService, false, data)
}

// Deploy adds a service to the container.  Deployment fails if the
// description is malformed or the adapter cannot be configured — the
// paper's experience that services are debugged at deployment time, not at
// first call.
func (c *Container) Deploy(cfg ServiceConfig) error {
	if err := cfg.Description.Validate(); err != nil {
		return err
	}
	a, err := c.registry.New(cfg.Adapter.Kind, cfg.Adapter.Config)
	if err != nil {
		return fmt.Errorf("container: deploy %q: %w", cfg.Description.Name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.services[cfg.Description.Name]; exists {
		return core.ErrConflict("service %q is already deployed", cfg.Description.Name)
	}
	svc := &service{desc: cfg.Description, adapter: a}
	c.refreshDescCacheLocked(svc)
	c.services[cfg.Description.Name] = svc
	// A (re)deployed adapter may compute differently for the same inputs:
	// cached results of this service are no longer trustworthy.
	if c.jobs != nil && c.jobs.memo != nil {
		c.jobs.memo.dropService(cfg.Description.Name)
	}
	c.logger.Printf("container: deployed service %q (adapter %s)",
		cfg.Description.Name, cfg.Adapter.Kind)
	c.notifyService(cfg.Description.Name, "deploy")
	return nil
}

// Undeploy removes a service.  Jobs already submitted keep running.
func (c *Container) Undeploy(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.services[name]; !ok {
		return core.ErrNotFound("service", name)
	}
	delete(c.services, name)
	if c.jobs != nil && c.jobs.memo != nil {
		c.jobs.memo.dropService(name)
	}
	c.notifyService(name, "undeploy")
	return nil
}

// DeployAll deploys every service in the list, stopping at the first error.
func (c *Container) DeployAll(cfgs []ServiceConfig) error {
	for _, cfg := range cfgs {
		if err := c.Deploy(cfg); err != nil {
			return err
		}
	}
	return nil
}

func (c *Container) service(name string) (*service, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	svc, ok := c.services[name]
	if !ok {
		return nil, core.ErrNotFound("service", name)
	}
	return svc, nil
}

// Services returns the deployed service descriptions, sorted by name, with
// absolute URIs filled in.
func (c *Container) Services() []core.ServiceDescription {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]core.ServiceDescription, 0, len(c.services))
	for _, svc := range c.services {
		d := svc.desc
		d.URI = c.serviceURILocked(d.Name)
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Describe returns the description of one deployed service.
func (c *Container) Describe(name string) (core.ServiceDescription, error) {
	svc, err := c.service(name)
	if err != nil {
		return core.ServiceDescription{}, err
	}
	d := svc.desc
	d.URI = c.ServiceURI(name)
	return d, nil
}

// DescribeCached returns the precomputed JSON representation of a service
// description together with its entity tag.  The bytes are immutable; they
// are rebuilt only by Deploy and SetBaseURL.  A nil body (marshalling
// failed at deploy time) tells the caller to fall back to Describe plus
// dynamic encoding.
func (c *Container) DescribeCached(name string) (body []byte, etag string, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	svc, ok := c.services[name]
	if !ok {
		return nil, "", core.ErrNotFound("service", name)
	}
	return svc.descJSON, svc.descETag, nil
}

// Jobs exposes the job manager.
func (c *Container) Jobs() *JobManager { return c.jobs }

// Files exposes the file store.
func (c *Container) Files() *FileStore { return c.files }

// SetBaseURL records the externally visible base URL of the container,
// used to mint absolute resource URIs.  Call it once the listener address
// is known.
func (c *Container) SetBaseURL(u string) {
	c.mu.Lock()
	old := c.baseURL
	c.baseURL = strings.TrimRight(u, "/")
	base := c.baseURL
	// The absolute URI embedded in each cached description changed with
	// the base URL; rebuild the caches (and thereby the entity tags).
	for _, svc := range c.services {
		c.refreshDescCacheLocked(svc)
	}
	c.mu.Unlock()
	// Cached computation outputs embed absolute file URIs minted under the
	// old base URL; drop them rather than serve unreachable references.
	if old != c.BaseURL() && c.jobs != nil && c.jobs.memo != nil {
		c.jobs.memo.reset()
	}
	// Journal the URL so a same-URL restart keeps the recovered memo table
	// (Recover restores the URL first, making the reset above a no-op).
	if base != "" && base != old {
		c.logRecord(journal.KindBaseURL, journal.BaseURLRecord{URL: base})
	}
	// Publish the container in the in-process registry so callers holding
	// its URIs can take the local invocation fast path.
	unregisterLocal(old, c)
	registerLocal(base, c)
}

// HasGuard reports whether the container enforces authentication and
// authorization.  In-process fast paths must not bypass a guard, so they
// fall back to HTTP when this is true.
func (c *Container) HasGuard() bool { return c.guard != nil }

// BaseURL returns the configured base URL ("" before SetBaseURL).
func (c *Container) BaseURL() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.baseURL
}

// ServiceURI returns the absolute URI of a service resource.
func (c *Container) ServiceURI(name string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.serviceURILocked(name)
}

func (c *Container) serviceURILocked(name string) string {
	if c.baseURL == "" {
		return "/services/" + name
	}
	return c.baseURL + "/services/" + name
}

// JobURI returns the absolute URI of a job resource.
func (c *Container) JobURI(serviceName, jobID string) string {
	return c.jobsURIPrefix(serviceName) + jobID
}

// jobsURIPrefix is the URI of a service's job collection with its trailing
// slash: a job's URI is jobsURIPrefix(service) + id, which the job encoder
// (core.NewJobEncoder) writes without building it.  It is the one place
// the job URI's shape is written; a deployed service's is built once, with
// its description cache.
func (c *Container) jobsURIPrefix(serviceName string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if svc, ok := c.services[serviceName]; ok {
		return svc.jobsURI
	}
	return c.serviceURILocked(serviceName) + "/jobs/"
}

// fileURI returns the absolute URI of a file resource, or the bare ID when
// no base URL is known yet (local-only use).
func (c *Container) fileURI(id string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.baseURL == "" {
		return id
	}
	return c.baseURL + "/files/" + id
}

// localFileID reports whether ref (the payload of a file reference)
// identifies a file in this container's store, returning its local ID.
func (c *Container) localFileID(ref string) (string, bool) {
	if fileIDPattern.MatchString(ref) {
		return ref, true
	}
	base := c.BaseURL()
	if base != "" && strings.HasPrefix(ref, base+"/files/") {
		id := strings.TrimPrefix(ref, base+"/files/")
		if fileIDPattern.MatchString(id) {
			return id, true
		}
	}
	return "", false
}

// SweepURI returns the absolute URI of a sweep resource.
func (c *Container) SweepURI(serviceName, sweepID string) string {
	return c.ServiceURI(serviceName) + "/sweeps/" + sweepID
}

// decorateSweep fills the URI fields of a sweep snapshot.
func (c *Container) decorateSweep(s *core.Sweep) *core.Sweep {
	s.URI = c.SweepURI(s.Service, s.ID)
	s.JobsURI = s.URI + "/jobs"
	return s
}
