package container

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

const (
	// defaultBatchMaxSize is the micro-batch bound when Options.BatchMaxSize
	// is zero: large enough to amortise per-invocation overhead, small
	// enough that one batch never monopolises a worker for long.
	defaultBatchMaxSize = 16
	// defaultMaxSweepWidth caps sweep expansion when Options.MaxSweepWidth
	// is zero.
	defaultMaxSweepWidth = 10000
)

// This file implements parameter sweeps: one request that expands into a
// whole campaign of child jobs (DESIGN.md §5f).  The submission path is
// bulk end to end — the service is resolved once, shared remote file inputs
// are staged once into the content-addressed store, input defaults are
// applied to the template once, the memo key of each point reuses the
// template's precomputed hash prefix, and registry inserts take each shard
// lock once per shard instead of once per child.  The sweep resource
// aggregates its children into fixed-size counts, so polling a width-1000
// campaign costs the same as polling one job.
//
// Lock order: sweepManager.mu, sweepRecord.mu and the registry shard locks
// may be taken in that nesting (manager → sweep → shard); jobRecord.mu is
// never held while taking sweepRecord.mu — child state transitions notify
// the sweep after releasing the record lock.

// sweepManager tracks the active sweeps of a JobManager and the children
// that did not fit into the job queue at submission time.
type sweepManager struct {
	mu     sync.RWMutex
	sweeps map[string]*sweepRecord
	// pendingCount is the total number of not-yet-enqueued children across
	// all sweeps; the per-job pump fast-path exits on zero without touching
	// any lock.
	pendingCount atomic.Int64
}

// pump feeds pending sweep children into freed queue capacity.  Workers call
// it after every processed job; the common no-sweep case is one atomic load.
func (sm *sweepManager) pump() {
	if sm.pendingCount.Load() == 0 {
		return
	}
	sm.mu.RLock()
	list := make([]*sweepRecord, 0, len(sm.sweeps))
	for _, sw := range sm.sweeps {
		list = append(list, sw)
	}
	sm.mu.RUnlock()
	for _, sw := range list {
		sw.pump()
	}
}

// sweepRecord is the container's internal state for one parameter sweep.
type sweepRecord struct {
	jm      *JobManager
	id      string
	service string
	owner   string
	traceID string
	created time.Time
	width   int
	// done closes when the last child reaches a terminal state.
	done chan struct{}
	// childIDs lists the children in point order; immutable once the sweep
	// is published.
	childIDs []string
	// template and points are the expanded sweep specification, retained so
	// the journal can record a width-N campaign as one record (children are
	// re-derived at replay) and snapshots can re-emit it.  Immutable once
	// published.
	template core.Values
	points   []core.Values
	// ttl is the sweep's destruction TTL: once every child is terminal the
	// sweep (and its children) are purged ttl after the last child lands.
	// Zero keeps the sweep until an explicit DELETE.  Immutable.
	ttl time.Duration
	// pumping admits one pump loop at a time, so the head of the pending
	// list is enqueued exactly once without holding mu across channel sends.
	pumping atomic.Bool

	mu         sync.Mutex
	counts     core.SweepCounts
	firstError string
	finished   time.Time
	// destruction is the reap-after instant, set by finalize when ttl > 0.
	destruction time.Time
	cancelled   bool
	// pending holds children waiting for queue capacity, in point order.
	pending []*jobRecord
}

// snapshot renders the sweep resource.  It is O(1) in the sweep width: the
// counts are a fixed-size histogram maintained incrementally by child
// transitions.
func (sw *sweepRecord) snapshot() *core.Sweep {
	s := &core.Sweep{
		ID:      sw.id,
		Service: sw.service,
		Width:   sw.width,
		Owner:   sw.owner,
		TraceID: sw.traceID,
		Created: sw.created,
	}
	sw.mu.Lock()
	s.Counts = sw.counts
	s.FirstError = sw.firstError
	s.Finished = sw.finished
	s.Destruction = sw.destruction
	sw.mu.Unlock()
	s.State = s.Counts.AggregateState(sw.width)
	return s
}

// childTransition folds one child state change into the aggregate counts.
// It must be called WITHOUT holding the child's record lock (see the lock
// order note above).  The transition that lands the last child finalizes
// the sweep.
func (sw *sweepRecord) childTransition(from, to core.JobState, errMsg string) {
	var terminalNow bool
	sw.mu.Lock()
	switch from {
	case core.StateWaiting:
		sw.counts.Waiting--
	case core.StateRunning:
		sw.counts.Running--
	}
	switch to {
	case core.StateRunning:
		sw.counts.Running++
	case core.StateDone:
		sw.counts.Done++
	case core.StateError:
		sw.counts.Error++
		if sw.firstError == "" && errMsg != "" {
			sw.firstError = errMsg
		}
	case core.StateCancelled:
		sw.counts.Cancelled++
	}
	if to.Terminal() && sw.counts.Terminal() == sw.width && sw.finished.IsZero() {
		sw.finished = time.Now()
		terminalNow = true
	}
	sw.mu.Unlock()
	if to.Terminal() {
		metSweepChildren.With(strings.ToLower(string(to))).Inc()
	}
	if terminalNow {
		sw.finalize()
	}
	// Publish after finalize so the terminal event carries the finished
	// timestamp; the Active gate inside keeps unwatched sweeps free.
	sw.jm.notifySweep(sw)
}

// finalize runs exactly once, when the last child lands (its caller set
// sw.finished under the lock): it releases the sweep-owned files — shared
// inputs staged at submission and blobs its children pulled from other
// replicas — and wakes every WaitSweep caller.
func (sw *sweepRecord) finalize() {
	sw.mu.Lock()
	if sw.ttl > 0 && sw.destruction.IsZero() {
		sw.destruction = sw.finished.Add(sw.ttl)
	}
	sw.mu.Unlock()
	sw.jm.c.files.DeleteOwnedBy(sw.id)
	metSweepActive.Add(-1)
	close(sw.done)
}

// pump moves pending children into free job-queue slots.  Only one pump per
// sweep runs at a time; a missed wakeup is recovered by the next per-job
// pump, so progress is guaranteed while any job completes.
func (sw *sweepRecord) pump() {
	if !sw.pumping.CompareAndSwap(false, true) {
		return
	}
	defer sw.pumping.Store(false)
	for {
		sw.mu.Lock()
		if len(sw.pending) == 0 {
			sw.mu.Unlock()
			return
		}
		rec := sw.pending[0]
		cancelled := sw.cancelled
		sw.mu.Unlock()
		if cancelled {
			// cancel already moved every child to CANCELLED; just drain.
			sw.dropPendingHead(rec)
			continue
		}
		// Children that went terminal while pending (cancelled
		// individually) have nothing to enqueue.
		select {
		case <-rec.done:
			sw.dropPendingHead(rec)
			continue
		default:
		}
		if !sw.jm.tryEnqueue(rec) {
			// Queue full again: retry on a later pump.
			return
		}
		sw.dropPendingHead(rec)
	}
}

// dropPendingHead removes rec from the head of the pending list if it still
// is the head (a concurrent cancel may have drained the list).
func (sw *sweepRecord) dropPendingHead(rec *jobRecord) {
	sw.mu.Lock()
	if len(sw.pending) > 0 && sw.pending[0] == rec {
		sw.pending = sw.pending[1:]
		sw.jm.sweeps.pendingCount.Add(-1)
	}
	sw.mu.Unlock()
}

// cancel cancels every non-terminal child of the sweep with a single call:
// queued and pending children move straight to CANCELLED, running children
// have their contexts cancelled.  Terminal children keep their results.
func (sw *sweepRecord) cancel() {
	sw.mu.Lock()
	sw.cancelled = true
	sw.mu.Unlock()
	for _, cid := range sw.childIDs {
		if rec, err := sw.jm.record(cid); err == nil {
			sw.jm.cancelJob(rec)
		}
	}
	// Drain the pending list: its children are terminal now, and the sweep
	// must not hold queue capacity hostage.
	sw.pump()
}

// SubmitSweep expands one sweep specification into child jobs of the named
// service and submits them in bulk, returning the aggregate sweep resource.
// The whole sweep validates atomically: any invalid point rejects the
// campaign before any job is created.
func (jm *JobManager) SubmitSweep(ctx context.Context, serviceName string, spec *core.SweepSpec, owner string) (*core.Sweep, error) {
	svc, err := jm.c.service(serviceName)
	if err != nil {
		return nil, err
	}
	points, err := spec.Expand(jm.maxSweepWidth)
	if err != nil {
		return nil, err
	}
	select {
	case <-jm.closing:
		return nil, core.ErrUnavailable(0, "container is shutting down")
	default:
	}
	_, trace := obs.EnsureRequestID(ctx)
	now := time.Now()
	ttl := spec.Destruction.Std()
	if ttl <= 0 {
		ttl = jm.jobTTL
	}
	sw := &sweepRecord{
		jm:      jm,
		id:      jm.c.newID(),
		service: serviceName,
		owner:   owner,
		traceID: trace,
		created: now,
		width:   len(points),
		ttl:     ttl,
		done:    make(chan struct{}),
	}

	// Shared staging and defaults, once for the whole campaign.
	template, err := jm.stageSweepFiles(ctx, sw, svc.desc.ApplyDefaults(spec.Template))
	if err != nil {
		jm.c.files.DeleteOwnedBy(sw.id)
		return nil, err
	}
	tspec := core.SweepSpec{Template: template}
	sw.template = template
	sw.points = points

	// Validate every point before creating anything.  The merged maps are
	// kept: they become the child inputs, sharing template values by
	// reference so batched adapters can recognise them by identity.
	merged := make([]core.Values, len(points))
	for i, override := range points {
		merged[i] = tspec.MergePoint(override)
		if err := svc.desc.ValidateInputs(merged[i]); err != nil {
			jm.c.files.DeleteOwnedBy(sw.id)
			return nil, core.ErrBadRequest("sweep point %d: %v", i, err)
		}
	}

	// One hash prefix for the whole campaign: HashPoint re-encodes only the
	// overrides of each point.  A hasher construction error (e.g. a file
	// reference this container cannot digest) degrades to uncached
	// execution — a conservative miss, never a wrong hit.
	var hasher *core.InputHasher
	if jm.memo != nil && svc.desc.Deterministic {
		hasher, _ = core.NewInputHasher(svc.desc.Name, svc.desc.Version, template, jm.digestRef)
	}

	// Create and publish the children under the sweep lock: followers of
	// pre-existing flights can be completed by their leader the moment
	// joinOrLead returns, and their transitions must not fold into the
	// counts before the loop's own increments.
	recs := make([]*jobRecord, 0, len(points))
	var pending []*jobRecord
	sw.childIDs = make([]string, 0, len(points))
	bornDone := 0
	sw.mu.Lock()
	for i, inputs := range merged {
		rec := &jobRecord{
			job: &core.Job{
				// Children carry the same replica prefix as the sweep, so a
				// gateway paging SweepJobs routes every child to the sweep's
				// home replica.
				ID:        jm.c.newID(),
				Service:   serviceName,
				State:     core.StateWaiting,
				Inputs:    inputs,
				Owner:     owner,
				Created:   now,
				Submitted: now,
				TraceID:   trace,
			},
			done:  make(chan struct{}),
			sweep: sw,
		}
		memoKey := ""
		if hasher != nil {
			if key, err := hasher.HashPoint(points[i], jm.digestRef); err == nil {
				memoKey = key
			}
		}
		enqueue := true
		if memoKey != "" {
			outputs, hit, leader := jm.memo.joinOrLead(memoKey, rec)
			switch {
			case hit:
				// Cache hit: the child is born DONE and never touches the
				// queue.  Counted directly — no transition will fire.
				metMemoHits.Inc()
				rec.job.State = core.StateDone
				rec.job.Outputs = outputs.Clone()
				rec.job.Started = now
				rec.job.Finished = now
				close(rec.done)
				sw.counts.Done++
				bornDone++
				enqueue = false
			case leader:
				rec.memoKey = memoKey
				metMemoMisses.Inc()
			default:
				// Coalesced onto an identical in-flight execution (possibly
				// an earlier point of this very sweep): completed by the
				// flight's leader, never queued.
				rec.coalesced = true
				metMemoCoalesced.Inc()
				enqueue = false
				sw.counts.Waiting++
			}
		}
		if enqueue {
			pending = append(pending, rec)
			sw.counts.Waiting++
		}
		recs = append(recs, rec)
		sw.childIDs = append(sw.childIDs, rec.job.ID)
	}

	// Bulk registry insert: group the children by shard and take each of
	// the jobShardCount locks at most once.
	var buckets [jobShardCount][]*jobRecord
	for _, rec := range recs {
		idx := jm.shardIndex(rec.job.ID)
		buckets[idx] = append(buckets[idx], rec)
	}
	for i := range buckets {
		if len(buckets[i]) == 0 {
			continue
		}
		sh := &jm.shards[i]
		sh.mu.Lock()
		for _, rec := range buckets[i] {
			sh.jobs[rec.job.ID] = rec
		}
		sh.mu.Unlock()
	}

	sw.pending = pending
	jm.sweeps.pendingCount.Add(int64(len(pending)))
	jm.sweeps.mu.Lock()
	jm.sweeps.sweeps[sw.id] = sw
	jm.sweeps.mu.Unlock()
	metSweepActive.Add(1)
	terminalNow := sw.counts.Terminal() == sw.width && sw.finished.IsZero()
	if terminalNow {
		sw.finished = time.Now()
	}
	sw.mu.Unlock()

	metJobsSubmitted.Add(float64(len(recs)))
	metSweepsSubmitted.Inc()
	if bornDone > 0 {
		metJobsCompleted.With("done").Add(float64(bornDone))
		metSweepChildren.With("done").Add(float64(bornDone))
	}
	// One journal record carries the whole campaign: child inputs are
	// re-derived from template+points at replay, so a width-N sweep costs
	// one record, not N.  Only children whose state diverged (born-DONE cache
	// hits here; starts and ends as they happen) write records of their own.
	if jm.c.journal != nil {
		jm.c.logRecord(journal.KindSweep, journal.SweepRecord{
			ID: sw.id, Service: sw.service, Owner: sw.owner, TraceID: sw.traceID,
			Created: sw.created, Width: sw.width, ChildIDs: sw.childIDs,
			Template: sw.template, Points: sw.points, TTL: core.Duration(sw.ttl),
		})
		for _, rec := range recs {
			if rec.job.State == core.StateDone {
				jm.logJobEnd(rec)
			}
		}
	}
	if terminalNow {
		// Every point was answered from the computation cache.
		sw.finalize()
	} else {
		sw.pump()
	}
	// A concurrent Close may have swept the registry before the inserts
	// above; cancel so no child is left WAITING forever.
	select {
	case <-jm.closing:
		sw.cancel()
	default:
	}
	if logger := obs.Logger(); logger.Enabled(ctx, slog.LevelInfo) {
		logger.LogAttrs(ctx, slog.LevelInfo, "sweep submitted",
			slog.String("request_id", trace),
			slog.String("sweep_id", sw.id),
			slog.String("service", serviceName),
			slog.Int("width", sw.width),
			slog.Int("cached", bornDone))
	}
	jm.notifySweepSubmitted(sw)
	return sw.snapshot(), nil
}

// stageSweepFiles localizes remote file references shared by every point of
// the sweep: each distinct URL in the template is fetched once into the
// content-addressed file store (owned by the sweep, released when it ends)
// and the reference is rewritten to the local file resource, so N children
// hardlink one staged blob instead of fetching the same URL N times.
// References the container already stores locally are left alone — per-child
// staging hardlinks them for free.
func (jm *JobManager) stageSweepFiles(ctx context.Context, sw *sweepRecord, template core.Values) (core.Values, error) {
	var fetched map[string]string // remote URL → rewritten local URI
	out := template
	copied := false
	for name, val := range template {
		ref, ok := core.FileRefID(val)
		if !ok {
			continue
		}
		if _, local := jm.c.localFileID(ref); local {
			continue
		}
		if !strings.HasPrefix(ref, "http://") && !strings.HasPrefix(ref, "https://") {
			continue
		}
		uri, ok := fetched[ref]
		if !ok {
			id, err := jm.fetchToStore(ctx, ref, sw.id)
			if err != nil {
				return nil, fmt.Errorf("container: stage sweep input %q: %w", name, err)
			}
			uri = jm.c.fileURI(id)
			if fetched == nil {
				fetched = make(map[string]string)
			}
			fetched[ref] = uri
		}
		if !copied {
			out = template.Clone()
			copied = true
		}
		out[name] = core.FileRef(uri)
	}
	return out, nil
}

// fetchToStore streams a remote file into the content-addressed store under
// the given owner, enforcing the staging size limit.
func (jm *JobManager) fetchToStore(ctx context.Context, url, owner string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := jm.c.httpClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	// Read one byte past the limit so an oversized file is detected rather
	// than silently truncated.
	id, err := jm.c.files.Put(io.LimitReader(resp.Body, maxFileBytes+1), owner)
	if err != nil {
		return "", err
	}
	if size, serr := jm.c.files.Size(id); serr == nil && size > maxFileBytes {
		_ = jm.c.files.Delete(id)
		return "", fmt.Errorf("GET %s: file exceeds the %d-byte staging limit", url, maxFileBytes)
	}
	return id, nil
}

// sweepRec resolves a sweep ID.
func (jm *JobManager) sweepRec(id string) (*sweepRecord, error) {
	jm.sweeps.mu.RLock()
	sw, ok := jm.sweeps.sweeps[id]
	jm.sweeps.mu.RUnlock()
	if !ok {
		return nil, core.ErrNotFound("sweep", id)
	}
	return sw, nil
}

// GetSweep returns the aggregate status of one sweep.  The call is O(1) in
// the sweep width, so clients can poll campaigns of thousands of points at
// the cost of a single-job poll.
func (jm *JobManager) GetSweep(id string) (*core.Sweep, error) {
	sw, err := jm.sweepRec(id)
	if err != nil {
		return nil, err
	}
	return sw.snapshot(), nil
}

// WaitSweep blocks until every child of the sweep reached a terminal state,
// the timeout elapses or ctx is cancelled, returning the latest snapshot.
func (jm *JobManager) WaitSweep(ctx context.Context, id string, timeout time.Duration) (*core.Sweep, error) {
	sw, err := jm.sweepRec(id)
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
	case <-sw.done:
	case <-timer:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return sw.snapshot(), nil
}

// ListSweeps returns the sweeps of one service (or all, if service is
// empty), newest first.
func (jm *JobManager) ListSweeps(service string) []*core.Sweep {
	jm.sweeps.mu.RLock()
	out := make([]*core.Sweep, 0, len(jm.sweeps.sweeps))
	for _, sw := range jm.sweeps.sweeps {
		if service != "" && sw.service != service {
			continue
		}
		out = append(out, sw.snapshot())
	}
	jm.sweeps.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Created.After(out[k].Created) })
	return out
}

// SweepChildren returns one page of child job snapshots in point order,
// optionally filtered by state, along with the total number of matches.
// Children destroyed individually are skipped.
func (jm *JobManager) SweepChildren(id string, state core.JobState, limit, offset int) ([]*core.Job, int, error) {
	sw, err := jm.sweepRec(id)
	if err != nil {
		return nil, 0, err
	}
	var out []*core.Job
	total := 0
	for _, cid := range sw.childIDs {
		rec, err := jm.record(cid)
		if err != nil {
			continue
		}
		snap := rec.snapshot()
		if state != "" && snap.State != state {
			continue
		}
		total++
		if total <= offset {
			continue
		}
		if limit > 0 && len(out) >= limit {
			continue // past the page; keep counting the total
		}
		out = append(out, snap)
	}
	return out, total, nil
}

// DeleteSweep implements the DELETE method of the sweep resource: a live
// sweep is cancelled in one call — queued and pending children are released
// immediately, running children are aborted, sweep-staged files are freed
// when the last child lands — and remains queryable; a terminal sweep is
// destroyed together with its children and their files.
func (jm *JobManager) DeleteSweep(id string) (*core.Sweep, error) {
	sw, err := jm.sweepRec(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-sw.done:
	default:
		sw.cancel()
		return sw.snapshot(), nil
	}
	// Terminal: destroy.  The map removal picks the winner among racing
	// deletes, so the purge runs exactly once.
	jm.sweeps.mu.Lock()
	_, present := jm.sweeps.sweeps[id]
	delete(jm.sweeps.sweeps, id)
	jm.sweeps.mu.Unlock()
	if !present {
		return nil, core.ErrNotFound("sweep", id)
	}
	jm.c.logRecord(journal.KindSweepPurge, journal.SweepPurgeRecord{ID: id})
	snap := sw.snapshot()
	for _, cid := range sw.childIDs {
		_, _ = jm.Delete(cid)
	}
	return snap, nil
}
