package container

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// commit publishes next, then stores it as the job's phase.  The caller
// holds rec.mu and has journaled next if its transition is journaled.
func (jm *JobManager) commit(rec *jobRecord, next *jobPhase) {
	jm.notifyJob(rec, next)
	rec.phase.Store(next)
}

// jobShardCount is the number of lock stripes in the job registry.  A
// power of two well above typical core counts keeps the collision
// probability of concurrent Submit/Status/Delete calls negligible.
const jobShardCount = 32

// jobShard is one lock stripe of the job registry.
type jobShard struct {
	mu   sync.RWMutex
	jobs map[string]*jobRecord
}

// JobManager manages the processing of incoming requests: requests are
// converted into asynchronous jobs and placed in a queue served by a
// configurable pool of handler goroutines, exactly as in the paper's
// container architecture.  The job registry is lock-striped across
// jobShardCount shards keyed by job-ID hash, so status polls from many
// concurrent clients do not serialize on one global mutex.
type JobManager struct {
	c *Container
	// queue holds every record waiting for a worker, in admission order.
	queue runQueue
	// deadline is the container-wide default execution deadline; a
	// service description's Deadline field overrides it per service.
	deadline time.Duration
	// memo is the computation cache for deterministic services (nil when
	// disabled): repeat submissions return DONE instantly from cached
	// outputs, and concurrent identical submissions coalesce onto one
	// adapter execution.
	memo *memoTable
	// batchMax bounds adapter micro-batching: a worker drains up to this
	// many queued jobs of one batch-capable service into a single
	// InvokeBatch call.  Values below 2 disable batching.
	batchMax int
	// maxSweepWidth caps the number of child jobs one sweep may expand to
	// (0 means unlimited).
	maxSweepWidth int
	// sweeps tracks the parameter sweeps.
	sweeps sweepManager
	// jobTTL is the container-wide default destruction TTL of terminal
	// jobs and sweeps (0 = keep until DELETE).
	jobTTL time.Duration

	shards [jobShardCount]jobShard

	// workers and running feed the /load report: pool size vs jobs
	// currently executing, alongside the queue occupancy.
	workers int
	running atomic.Int64

	wg sync.WaitGroup
	// baseCtx parents every job context, so Close cancels jobs that a
	// worker dequeues concurrently with shutdown; it is done once Close
	// has begun.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// jobManagerConfig carries the construction parameters of a JobManager;
// zero values select the documented defaults.
type jobManagerConfig struct {
	workers       int
	queueSize     int
	deadline      time.Duration
	memoEntries   int
	memoBytes     int64
	batchMax      int
	maxSweepWidth int
	jobTTL        time.Duration
}

func newJobManager(c *Container, cfg jobManagerConfig) *JobManager {
	workers := cfg.workers
	if workers <= 0 {
		workers = 4
	}
	queueSize := cfg.queueSize
	if queueSize <= 0 {
		queueSize = 1024
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	jm := &JobManager{
		c:             c,
		workers:       workers,
		deadline:      cfg.deadline,
		batchMax:      cfg.batchMax,
		maxSweepWidth: cfg.maxSweepWidth,
		jobTTL:        cfg.jobTTL,
		baseCtx:       baseCtx,
		baseCancel:    baseCancel,
	}
	jm.queue.init(queueSize)
	jm.sweeps.sweeps = make(map[string]*sweepRecord)
	if cfg.memoEntries > 0 && cfg.memoBytes > 0 {
		jm.memo = newMemoTable(cfg.memoEntries, cfg.memoBytes)
	}
	for i := range jm.shards {
		jm.shards[i].jobs = make(map[string]*jobRecord)
	}
	jm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go jm.worker()
	}
	jm.wg.Add(1)
	go jm.reaper()
	return jm
}

// shardIndex returns the index of the lock stripe owning the given job ID
// (FNV-1a hash).  Bulk submitters group records by index to take each
// stripe's lock once.
func (jm *JobManager) shardIndex(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % jobShardCount)
}

// shard returns the lock stripe owning the given job ID.
func (jm *JobManager) shard(id string) *jobShard {
	return &jm.shards[jm.shardIndex(id)]
}

// allRecords snapshots the record pointers of every shard.
func (jm *JobManager) allRecords() []*jobRecord {
	var recs []*jobRecord
	for i := range jm.shards {
		sh := &jm.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.jobs {
			recs = append(recs, rec)
		}
		sh.mu.RUnlock()
	}
	return recs
}

// SubmitOptions carries the optional fields of a submission.
type SubmitOptions struct {
	// Owner is the principal the job belongs to ("" for anonymous).
	Owner string
	// TTL is the job's destruction TTL (the UWS-style ?destruction= request
	// field): the terminal job is purged together with its file resources
	// this long after it finishes.  Zero inherits the container default.
	TTL time.Duration
}

// Submit creates a job for the given service request and enqueues it.  The
// request ID in ctx (established at HTTP ingress or by an in-process
// invoker) is recorded as the job's TraceID and re-enters the context of
// every outbound call the job makes, so a workflow's fan-out across services
// shares one correlation ID.  A context without an ID gets a fresh one.
func (jm *JobManager) Submit(ctx context.Context, serviceName string, inputs core.Values, opts SubmitOptions) (*core.Job, error) {
	rec, err := jm.submit(ctx, serviceName, inputs, opts)
	if err != nil {
		return nil, err
	}
	return rec.current(), nil
}

// submit is Submit, returning the job's record.
func (jm *JobManager) submit(ctx context.Context, serviceName string, inputs core.Values, opts SubmitOptions) (*jobRecord, error) {
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = jm.jobTTL
	}
	svc, err := jm.c.service(serviceName)
	if err != nil {
		return nil, err
	}
	inputs = svc.desc.ApplyDefaults(inputs)
	fileInputs, err := svc.desc.CheckInputs(inputs)
	if err != nil {
		return nil, core.ErrBadRequest("%v", err)
	}
	_, trace := obs.EnsureRequestID(ctx)
	now := time.Now()
	req := jobRequest{
		id: jm.c.newID(), service: serviceName, owner: opts.Owner, traceID: trace,
		inputs: inputs, created: now, submitted: now,
		idPlain: jm.c.idsPlain, tracePlain: core.PlainString(trace), fileInputs: fileInputs,
	}

	// Result-reuse gate.  Only services that declared themselves
	// deterministic pay for key derivation; everything else goes straight
	// to the queue, byte-for-byte as before.
	memoKey, memoable := jm.memoKey(svc, inputs)
	if memoable {
		if outputs, ok := jm.memo.lookup(memoKey); ok {
			metMemoHits.Inc()
			return jm.publishCachedJob(ctx, req, outputs, ttl), nil
		}
	}

	rec := newJobRecord(req)
	rec.ttl = ttl
	if jm.baseCtx.Err() != nil {
		return nil, errShuttingDown
	}
	// Join or lead the singleflight before the record becomes visible, so
	// the coalescing flags are immutable once any other goroutine can see
	// the record.
	follower := false
	if memoable {
		cached, hit, leader := jm.memo.joinOrLead(memoKey, rec)
		switch {
		case hit:
			// The flight settled since the lookup above.
			metMemoHits.Inc()
			return jm.publishCachedJob(ctx, req, cached, ttl), nil
		case leader:
			rec.memoKey = memoKey
			metMemoMisses.Inc()
		default:
			rec.coalesced = true
			follower = true
		}
	}
	// Admission comes before the record is published, so a refused job
	// never becomes visible.  A worker may take the job the instant it is
	// queued; nothing it does needs the registry.
	if !follower {
		if err := jm.queue.push(true, rec); err != nil {
			if err == errQueueFull {
				metQueueRejections.Inc()
			}
			// A leader that never entered the queue must still resolve its
			// flight: followers that joined in the meantime fail with the
			// same error instead of waiting forever.
			if rec.memoKey != "" {
				jm.failFlight(rec.memoKey, "container: coalesced execution was rejected: "+err.Error())
			}
			return nil, err
		}
	}
	// The accept is journaled before the job enters the registry, so every
	// job a client can see or was told about survives a crash.
	jm.register(rec)
	metJobsSubmitted.Inc()

	if follower {
		// Coalesced: an identical execution is already in flight.  The job
		// will be completed by the flight's leader; it never occupies a
		// queue slot or a worker, so Close cannot find it in the queue: if
		// the shutdown has begun, cancel it here so its waiters are
		// released.  A leader settling concurrently skips terminal records.
		metMemoCoalesced.Inc()
		if jm.baseCtx.Err() != nil {
			jm.cancelPending(rec)
		}
		return rec, nil
	}
	obs.Log(ctx, slog.LevelInfo, "job submitted",
		slog.String("request_id", trace),
		slog.String("job_id", rec.id),
		slog.String("service", serviceName))
	return rec, nil
}

// register journals a new standalone job's current phase, publishes it
// unless a transition has (a worker may take the job the instant it is
// queued), and then enters the record into the registry.  Holding rec.mu
// keeps a transition from committing in between, so no record journaled
// for the job is newer than its phase; holding jm.c.commits keeps a
// checkpoint from folding the registry in between.
func (jm *JobManager) register(rec *jobRecord) {
	rec.mu.Lock()
	p := rec.phase.Load()
	if jm.c.journal != nil {
		jm.c.commits.RLock()
		jm.logJob(rec, p)
	}
	if p == &rec.born {
		jm.notifyJob(rec, p)
	}
	sh := jm.shard(rec.id)
	sh.mu.Lock()
	sh.jobs[rec.id] = rec
	sh.mu.Unlock()
	if jm.c.journal != nil {
		jm.c.commits.RUnlock()
	}
	rec.mu.Unlock()
}

// SubmitCtx is Submit with only an owner.  It is kept solely because the
// benchmark harness (bench/tracerun.go) compiles against it.
func (jm *JobManager) SubmitCtx(ctx context.Context, serviceName string, inputs core.Values, owner string) (*core.Job, error) {
	return jm.Submit(ctx, serviceName, inputs, SubmitOptions{Owner: owner})
}

// queueFullRetryAfter is the Retry-After hint advertised when the job queue
// is full: long enough for the handler pool to make progress, short enough
// that a retrying client observes free capacity promptly.
const queueFullRetryAfter = time.Second

// Get returns the job's current image, which is shared: callers must not
// write to it (Job.Clone makes a copy that they may).
func (jm *JobManager) Get(id string) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	return rec.current(), nil
}

// eventImage returns the job's phase and the ID of the last event on its
// topic, read together under rec.mu.  A commit publishes and stores under
// that lock, so the phase is no older than any event up to the ID and
// older than every event after it.  It is the one reader that takes the
// lock: a job's SSE stream calls it when it opens and once per sync frame.
func (jm *JobManager) eventImage(id, topic string) (jobImage, uint64, error) {
	rec, err := jm.record(id)
	if err != nil {
		return jobImage{}, 0, err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return jobImage{rec, rec.phase.Load()}, jm.c.events.Seq(topic), nil
}

func (jm *JobManager) record(id string) (*jobRecord, error) {
	sh := jm.shard(id)
	sh.mu.RLock()
	rec, ok := sh.jobs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, core.ErrNotFound("job", id)
	}
	return rec, nil
}

// Wait blocks until the job reaches a terminal state, the timeout elapses
// or ctx is cancelled, returning the job's current image (shared, as Get's).
func (jm *JobManager) Wait(ctx context.Context, id string, timeout time.Duration) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	if err := awaitDone(ctx, rec.doneChan(), timeout); err != nil {
		return nil, err
	}
	return rec.current(), nil
}

// closedChan is the done channel of every job that is already terminal.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// doneChan returns a channel that closes when the job lands: closedChan if
// it has, else the record's done channel, made by the first waiter.
func (rec *jobRecord) doneChan() <-chan struct{} {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.phase.Load().state.terminal() {
		return closedChan
	}
	if rec.done == nil {
		rec.done = make(chan struct{})
	}
	return rec.done
}

// awaitDone is the server half of every ?wait= long-poll: it blocks until
// done closes, the timeout elapses (0 = no timeout) or ctx ends.  Waiting
// is one channel receive on purpose; a bus subscription per waiter would
// create a topic per waited resource and make every transition marshal a
// snapshot (DESIGN.md §5g).
func awaitDone(ctx context.Context, done <-chan struct{}, timeout time.Duration) error {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-done:
	case <-timer:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Delete implements the DELETE method of the job resource: it cancels a
// live job, or destroys the record and its subordinate file resources if
// the job is already terminal.  It returns the job's image after the
// cancel, or its last one (shared, as Get's).
func (jm *JobManager) Delete(id string) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	p, err := jm.delete(rec)
	if err != nil {
		return nil, err
	}
	return rec.image(p), nil
}

// delete is Delete of a looked-up record, returning its phase.
func (jm *JobManager) delete(rec *jobRecord) (*jobPhase, error) {
	if !rec.phase.Load().state.terminal() {
		jm.cancelJob(rec)
		return rec.phase.Load(), nil
	}
	if !jm.destroy(rec.id) {
		return nil, core.ErrNotFound("job", rec.id)
	}
	return rec.phase.Load(), nil
}

// destroy removes a terminal job's record and its subordinate file
// resources, reporting false when the record was already gone.  The map
// removal decides the winner among racing deletes, so the purge runs
// exactly once and later deletes observe 404.
func (jm *JobManager) destroy(id string) bool {
	sh := jm.shard(id)
	sh.mu.Lock()
	_, present := sh.jobs[id]
	delete(sh.jobs, id)
	sh.mu.Unlock()
	if !present {
		return false
	}
	// The purge is journaled before the memo entry and files go, so a crash
	// mid-destruction replays the purge rather than resurrecting a
	// half-deleted job.  Replayed purges are idempotent.
	if jm.c.journal != nil {
		jm.c.logRecord(journal.KindJobPurge, journal.JobPurgeRecord{ID: id})
	}
	// The cached entry backed by this job references its files; purge it
	// with them so hits never return dangling URIs.
	if jm.memo != nil {
		jm.memo.dropJob(id)
	}
	jm.c.files.DeleteOwnedBy(id)
	return true
}

// List returns the images of the jobs of one service (or all, if service is
// empty), newest first.  As with ListPage, they are shared: callers must not
// write to them.
func (jm *JobManager) List(service string) []*core.Job {
	jobs, _ := jm.ListPage(service, "", 0, 0)
	return jobs
}

// ListPage returns one page of job images for a service (or all services
// when service is empty), optionally filtered by state, newest first, along
// with the total number of matches before paging.  limit <= 0 means no
// limit; offset skips that many matches from the newest end.  Campaign-scale
// clients page through a sweep's thousands of children instead of pulling
// one monolithic list.  The images are shared: callers must not write to
// them.
func (jm *JobManager) ListPage(service string, state core.JobState, limit, offset int) ([]*core.Job, int) {
	imgs, total := jm.listPage(service, state, limit, offset)
	return images(imgs), total
}

// listPage is ListPage, returning each job as its record and phase.
func (jm *JobManager) listPage(service string, state core.JobState, limit, offset int) ([]jobImage, int) {
	var out []jobImage
	for _, rec := range jm.allRecords() {
		if service != "" && rec.service != service {
			continue
		}
		p := rec.phase.Load()
		if state != "" && p.state.jobState() != state {
			continue
		}
		out = append(out, jobImage{rec, p})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].rec.created.After(out[k].rec.created) })
	total := len(out)
	if offset > 0 {
		if offset >= len(out) {
			out = nil
		} else {
			out = out[offset:]
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, total
}

// closeGrace bounds how long Close waits for running adapters to honour
// the cancellation of their contexts.
const closeGrace = 5 * time.Second

// Close stops the worker pool after cancelling running jobs and the jobs
// still queued, so every accepted job reaches a terminal state and every
// concurrent Wait call unblocks.  Closing the queue refuses every later
// push, so no job can enter it behind the drain.  After Close returns, no
// job is left in WAITING or RUNNING.
//
// An adapter that ignores its context cannot hold Close up: past
// closeGrace, every job still RUNNING lands CANCELLED, one warning names
// them, and Close returns without waiting for their workers.  A worker
// that returns later finds its job landed, and its result is dropped.
func (jm *JobManager) Close() {
	// Cancel the parent of every job context: this reaches running jobs
	// and any job a worker dequeues concurrently with this shutdown.
	jm.baseCancel()
	for _, rec := range jm.queue.close() {
		jm.cancelPending(rec)
	}
	drained := make(chan struct{})
	go func() {
		jm.wg.Wait()
		close(drained)
	}()
	grace := time.NewTimer(closeGrace)
	defer grace.Stop()
	select {
	case <-drained:
		return
	case <-grace.C:
	}
	var stuck []string
	for _, rec := range jm.allRecords() {
		if jm.land(rec, core.StateRunning, core.StateCancelled, nil, "") {
			stuck = append(stuck, rec.id)
		}
	}
	obs.Log(context.Background(), slog.LevelWarn, "close: adapters ignored cancellation",
		slog.Duration("grace", closeGrace),
		slog.Any("jobs", stuck))
}

// MemoStats reports the computation cache occupancy: cached entries and
// their approximate byte size.  Zeroes when the cache is disabled.
func (jm *JobManager) MemoStats() (entries int, bytes int64) {
	if jm.memo == nil {
		return 0, 0
	}
	return jm.memo.stats()
}

// LoadReport snapshots the manager's load for GET /load: queue occupancy,
// executing jobs vs pool size, and memo cache footprint.  The gateway's
// power-of-two-choices placement consumes it at load-interval cadence.
func (jm *JobManager) LoadReport() core.LoadReport {
	entries, bytes := jm.MemoStats()
	return core.LoadReport{
		QueueDepth:  jm.queue.depth(),
		QueueCap:    jm.queue.limit,
		Running:     int(jm.running.Load()),
		Workers:     jm.workers,
		MemoEntries: entries,
		MemoBytes:   bytes,
	}
}
