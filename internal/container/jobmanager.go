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

// jobRecord is the container's internal state for one job.
type jobRecord struct {
	mu     sync.Mutex
	job    *core.Job
	cancel context.CancelFunc
	done   chan struct{}
	// memoKey marks the leader of a singleflight execution: when this job
	// reaches a terminal state it settles the flight — completes coalesced
	// followers and, on success, populates the computation cache.
	memoKey string
	// coalesced marks a follower: a job that never entered the queue and is
	// completed by its flight's leader.  Followers stay out of the queue
	// gauges.
	coalesced bool
	// sweep links a child job back to the sweep that spawned it; nil for
	// ordinary jobs.  Immutable once the record is published.  State
	// transitions notify the sweep OUTSIDE rec.mu — a sweep may take its
	// own lock and then rec.mu (pump inspects children), so the reverse
	// order would deadlock.
	sweep *sweepRecord
	// ttl is the job's destruction TTL (UWS-style): when it reaches a
	// terminal state, Destruction = Finished + ttl and the reaper purges it
	// past that instant.  Zero keeps the job until an explicit DELETE.
	// Immutable once the record is published.  Sweep children carry zero —
	// retention is governed by the sweep's own TTL.
	ttl time.Duration
	// queued tracks whether the record currently occupies a queue slot, so
	// the queue-depth gauge stays exact across every exit path (worker
	// pickup, cancel-while-queued, enqueue rejection) without caring which
	// path wins the race.
	queued atomic.Bool
	// snap caches the last published snapshot of the job.  Mutators clear
	// it (under mu); readers rebuild it lazily, so the status-polling hot
	// path costs one atomic load and a shallow copy instead of a mutex
	// acquisition and a deep clone per poll.
	snap atomic.Pointer[core.Job]
}

// snapshot returns a copy of the job safe for decoration and serialization.
// The cached clone is immutable once published; each caller receives its own
// shallow copy so per-request fields (URI) can be filled in without sharing.
func (r *jobRecord) snapshot() *core.Job {
	snap := r.snap.Load()
	if snap == nil {
		r.mu.Lock()
		snap = r.job.Clone()
		r.snap.Store(snap)
		r.mu.Unlock()
	}
	out := *snap
	return &out
}

// invalidate drops the cached snapshot.  Callers must hold r.mu and call it
// after every mutation of r.job, so readers never observe a stale clone
// beyond the natural raciness of concurrent polling.
func (r *jobRecord) invalidate() { r.snap.Store(nil) }

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
	c     *Container
	queue chan *jobRecord
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
	// sweeps tracks the active parameter sweeps and their not-yet-enqueued
	// children.
	sweeps sweepManager
	// jobTTL is the container-wide default destruction TTL of terminal
	// jobs and sweeps (0 = keep until DELETE).
	jobTTL time.Duration

	shards [jobShardCount]jobShard

	// backlog holds recovered WAITING jobs that did not fit the queue at
	// Recover time; workers drain it as capacity frees up, mirroring the
	// sweep pending pump.  backlogCount is the lock-free fast-path gate.
	backlogMu      sync.Mutex
	backlog        []*jobRecord
	backlogCount   atomic.Int64
	backlogPumping atomic.Bool

	// workers and running feed the /load report: pool size vs jobs
	// currently executing, alongside the queue occupancy.
	workers int
	running atomic.Int64

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
	// baseCtx parents every job context, so Close cancels jobs that a
	// worker dequeues concurrently with shutdown.
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
		queue:         make(chan *jobRecord, queueSize),
		deadline:      cfg.deadline,
		batchMax:      cfg.batchMax,
		maxSweepWidth: cfg.maxSweepWidth,
		jobTTL:        cfg.jobTTL,
		closing:       make(chan struct{}),
		baseCtx:       baseCtx,
		baseCancel:    baseCancel,
	}
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

// Submit creates a job for the given service request and enqueues it.
func (jm *JobManager) Submit(serviceName string, inputs core.Values, owner string) (*core.Job, error) {
	return jm.SubmitCtx(context.Background(), serviceName, inputs, owner)
}

// SubmitCtx is Submit with a caller context: the request ID established at
// HTTP ingress (or by an in-process invoker) is recorded as the job's
// TraceID and re-enters the context of every outbound call the job makes,
// so a workflow's fan-out across services shares one correlation ID.  A
// context without an ID gets a fresh one.
func (jm *JobManager) SubmitCtx(ctx context.Context, serviceName string, inputs core.Values, owner string) (*core.Job, error) {
	return jm.SubmitTTL(ctx, serviceName, inputs, owner, 0)
}

// SubmitTTL is SubmitCtx with an explicit destruction TTL (the UWS-style
// ?destruction= request field): the terminal job is purged together with its
// file resources this long after it finishes.  Zero inherits the container
// default.
func (jm *JobManager) SubmitTTL(ctx context.Context, serviceName string, inputs core.Values, owner string, ttl time.Duration) (*core.Job, error) {
	if ttl <= 0 {
		ttl = jm.jobTTL
	}
	svc, err := jm.c.service(serviceName)
	if err != nil {
		return nil, err
	}
	inputs = svc.desc.ApplyDefaults(inputs)
	if err := svc.desc.ValidateInputs(inputs); err != nil {
		return nil, core.ErrBadRequest("%v", err)
	}
	_, trace := obs.EnsureRequestID(ctx)

	// Result-reuse gate.  Only services that declared themselves
	// deterministic pay for key derivation; everything else goes straight
	// to the queue, byte-for-byte as before.
	memoKey, memoable := jm.memoKey(svc, inputs)
	if memoable {
		if outputs, ok := jm.memo.lookup(memoKey); ok {
			metMemoHits.Inc()
			return jm.publishCachedJob(ctx, serviceName, inputs, owner, trace, outputs, ttl)
		}
	}

	now := time.Now()
	rec := &jobRecord{
		job: &core.Job{
			ID:        jm.c.newID(),
			Service:   serviceName,
			State:     core.StateWaiting,
			Inputs:    inputs,
			Owner:     owner,
			Created:   now,
			Submitted: now,
			TraceID:   trace,
		},
		done: make(chan struct{}),
		ttl:  ttl,
	}
	select {
	case <-jm.closing:
		return nil, core.ErrUnavailable(0, "container is shutting down")
	default:
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
			return jm.publishCachedJob(ctx, serviceName, inputs, owner, trace, cached, ttl)
		case leader:
			rec.memoKey = memoKey
			metMemoMisses.Inc()
		default:
			rec.coalesced = true
			follower = true
		}
	}
	sh := jm.shard(rec.job.ID)
	sh.mu.Lock()
	sh.jobs[rec.job.ID] = rec
	sh.mu.Unlock()

	if follower {
		// Coalesced: an identical execution is already in flight.  The job
		// is registered and will be completed by the flight's leader; it
		// never occupies a queue slot or a worker.
		metMemoCoalesced.Inc()
		metJobsSubmitted.Inc()
		jm.logJob(rec)
		jm.notifyJob(rec)
		// Close may have swept the registry before the insert above; the
		// final sweep of Close cancels WAITING followers, and a leader
		// settling concurrently skips terminal records, so no waiter is
		// left hanging either way.
		select {
		case <-jm.closing:
			jm.cancelPending(rec)
		default:
		}
		return rec.snapshot(), nil
	}

	if jm.tryEnqueue(rec) {
		metJobsSubmitted.Inc()
		// The accept is journaled before SubmitCtx returns, so every job a
		// client was ever told about survives a crash.
		jm.logJob(rec)
		jm.notifyJob(rec)
		if logger := obs.Logger(); logger.Enabled(ctx, slog.LevelInfo) {
			logger.LogAttrs(ctx, slog.LevelInfo, "job submitted",
				slog.String("request_id", trace),
				slog.String("job_id", rec.job.ID),
				slog.String("service", serviceName))
		}
		// Re-check shutdown: Close may have swept the job map before the
		// insert above, in which case no reader will ever drain this
		// record — cancel it here so its waiters are released.
		select {
		case <-jm.closing:
			jm.cancelPending(rec)
		default:
		}
		return rec.snapshot(), nil
	}
	sh.mu.Lock()
	delete(sh.jobs, rec.job.ID)
	sh.mu.Unlock()
	metQueueRejections.Inc()
	// A leader that never entered the queue must still resolve its flight:
	// followers that joined in the meantime fail with the same overload
	// error instead of waiting forever.
	if rec.memoKey != "" {
		jm.failFlight(rec.memoKey, "container: coalesced execution was rejected: job queue is full")
	}
	// A full queue is a transient overload, not a request conflict: answer
	// 503 with a retry hint so client retry policies absorb it.
	return nil, core.ErrUnavailable(queueFullRetryAfter, "job queue is full")
}

// tryEnqueue offers rec to the job queue without blocking, reporting whether
// it was accepted.  The record is marked queued before the send — a worker
// may dequeue it the instant it lands, and every exit from the queue (worker
// pickup, cancel-while-queued, the rejection here) balances the waiting
// gauge through the same flag, whichever wins the race.
func (jm *JobManager) tryEnqueue(rec *jobRecord) bool {
	rec.queued.Store(true)
	metJobsWaiting.Add(1)
	select {
	case jm.queue <- rec:
		return true
	default:
		if rec.queued.CompareAndSwap(true, false) {
			metJobsWaiting.Add(-1)
		}
		return false
	}
}

// queueFullRetryAfter is the Retry-After hint advertised when the job queue
// is full: long enough for the handler pool to make progress, short enough
// that a retrying client observes free capacity promptly.
const queueFullRetryAfter = time.Second

// Get returns a snapshot of the job.
func (jm *JobManager) Get(id string) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	return rec.snapshot(), nil
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
// or ctx is cancelled, returning the latest snapshot.
func (jm *JobManager) Wait(ctx context.Context, id string, timeout time.Duration) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-rec.done:
	case <-timer:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return rec.snapshot(), nil
}

// Delete implements the DELETE method of the job resource: it cancels a
// live job, or destroys the record and its subordinate file resources if
// the job is already terminal.
func (jm *JobManager) Delete(id string) (*core.Job, error) {
	rec, err := jm.record(id)
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	terminal := rec.job.State.Terminal()
	rec.mu.Unlock()
	if !terminal {
		jm.cancelJob(rec)
		return rec.snapshot(), nil
	}
	// Terminal: destroy the job resource and its files.  The map removal
	// decides the winner among racing deletes, so the purge runs exactly
	// once and later deletes observe 404.
	sh := jm.shard(id)
	sh.mu.Lock()
	_, present := sh.jobs[id]
	delete(sh.jobs, id)
	sh.mu.Unlock()
	if !present {
		return nil, core.ErrNotFound("job", id)
	}
	// The purge is journaled before the memo entry and files go, so a crash
	// mid-destruction replays the purge rather than resurrecting a
	// half-deleted job.  Replayed purges are idempotent.
	jm.c.logRecord(journal.KindJobPurge, journal.JobPurgeRecord{ID: id})
	// The cached entry backed by this job references its files; purge it
	// with them so hits never return dangling URIs.
	if jm.memo != nil {
		jm.memo.dropJob(id)
	}
	jm.c.files.DeleteOwnedBy(id)
	return rec.snapshot(), nil
}

// List returns snapshots of jobs for one service (or all, if service is
// empty), newest first.
func (jm *JobManager) List(service string) []*core.Job {
	jobs, _ := jm.ListPage(service, "", 0, 0)
	return jobs
}

// ListPage returns one page of job snapshots for a service (or all services
// when service is empty), optionally filtered by state, newest first, along
// with the total number of matches before paging.  limit <= 0 means no
// limit; offset skips that many matches from the newest end.  Campaign-scale
// clients page through a sweep's thousands of children instead of pulling
// one monolithic list.
func (jm *JobManager) ListPage(service string, state core.JobState, limit, offset int) ([]*core.Job, int) {
	var out []*core.Job
	for _, rec := range jm.allRecords() {
		// Service is immutable after Submit publishes the record, so the
		// filter avoids cloning jobs of other services.
		if service != "" && rec.job.Service != service {
			continue
		}
		snap := rec.snapshot()
		if state != "" && snap.State != state {
			continue
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.After(out[k].Created) })
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

// Close stops the worker pool after cancelling running jobs and drains the
// queue, so every accepted job reaches a terminal state and every
// concurrent Wait call unblocks.  After Close returns, no job is left in
// WAITING or RUNNING.
func (jm *JobManager) Close() {
	jm.closeOnce.Do(func() { close(jm.closing) })
	// Cancel the parent of every job context: this reaches running jobs
	// and any job a worker dequeues concurrently with this shutdown.
	jm.baseCancel()
	// Drain jobs still sitting in the queue to CANCELLED.  Workers may be
	// dequeuing concurrently, but each record goes to exactly one reader.
	for {
		select {
		case rec := <-jm.queue:
			jm.cancelPending(rec)
			continue
		default:
		}
		break
	}
	jm.wg.Wait()
	// Final sweep: a Submit racing this shutdown can enqueue a record
	// after both the workers and the drain loop have stopped reading.
	for _, rec := range jm.allRecords() {
		jm.cancelPending(rec)
	}
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
		QueueDepth:  len(jm.queue) + int(jm.backlogCount.Load()),
		QueueCap:    cap(jm.queue),
		Running:     int(jm.running.Load()),
		Workers:     jm.workers,
		MemoEntries: entries,
		MemoBytes:   bytes,
	}
}
