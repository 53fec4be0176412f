package container

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// This file is the JobManager's result-reuse gate: memo key derivation,
// jobs born DONE from the computation cache, and the settlement of
// singleflight executions (memo.go holds the table itself).

// errNonLocalFileRef marks a request input referencing a file this
// container does not store; such requests cannot be content-hashed cheaply
// and bypass the computation cache.
var errNonLocalFileRef = errors.New("container: non-local file reference")

// memoKey derives the content-addressed computation key of a request, or
// reports false when the request is not memoizable: the service did not
// declare itself deterministic, the cache is disabled, or an input
// references a file whose content this container cannot digest.  The
// non-deterministic path is a single branch with no allocation.
func (jm *JobManager) memoKey(svc *service, inputs core.Values) (string, bool) {
	if jm.memo == nil || !svc.desc.Deterministic {
		return "", false
	}
	key, err := core.CanonicalHash(svc.desc.Name, svc.desc.Version, inputs, jm.digestRef)
	if err != nil {
		return "", false
	}
	return key, true
}

// digestRef resolves a file-reference input to the content digest the file
// store computed while the file streamed in.
func (jm *JobManager) digestRef(ref string) (string, error) {
	if id, ok := jm.c.localFileID(ref); ok {
		return jm.c.files.Digest(id)
	}
	return "", errNonLocalFileRef
}

// publishCachedJob registers a job that is born DONE: a cache hit.  The
// cached outputs are cloned onto a fresh job record, so the caller observes
// exactly the shape a real execution would have produced, minus the queue
// and the adapter.
func (jm *JobManager) publishCachedJob(ctx context.Context, serviceName string, inputs core.Values, owner, trace string, outputs core.Values, ttl time.Duration) (*core.Job, error) {
	now := time.Now()
	rec := &jobRecord{
		job: &core.Job{
			ID:        jm.c.newID(),
			Service:   serviceName,
			State:     core.StateDone,
			Inputs:    inputs,
			Outputs:   outputs.Clone(),
			Owner:     owner,
			Created:   now,
			Submitted: now,
			Started:   now,
			Finished:  now,
			TraceID:   trace,
		},
		done: make(chan struct{}),
		ttl:  ttl,
	}
	if ttl > 0 {
		rec.job.Destruction = now.Add(ttl)
	}
	close(rec.done)
	sh := jm.shard(rec.job.ID)
	sh.mu.Lock()
	sh.jobs[rec.job.ID] = rec
	sh.mu.Unlock()
	metJobsSubmitted.Inc()
	metJobsCompleted.With("done").Inc()
	// Born terminal: one record carries the whole lifecycle.
	jm.logJob(rec)
	jm.notifyJob(rec)
	if logger := obs.Logger(); logger.Enabled(ctx, slog.LevelInfo) {
		logger.LogAttrs(ctx, slog.LevelInfo, "job served from computation cache",
			slog.String("request_id", trace),
			slog.String("job_id", rec.job.ID),
			slog.String("service", serviceName))
	}
	return rec.snapshot(), nil
}

// settleFlight finishes the singleflight led by rec once land has settled it
// in the memo table: a cached result is journaled, and the followers land in
// the leader's terminal state — DONE with its outputs, otherwise failed.
func (jm *JobManager) settleFlight(rec *jobRecord, followers []*jobRecord, stored bool, state core.JobState, outputs core.Values, errMsg string) {
	if stored {
		// ID and Service are immutable once the record is published.
		jm.c.logRecord(journal.KindMemoPut, journal.MemoPutRecord{
			Key: rec.memoKey, Service: rec.job.Service, JobID: rec.job.ID, Outputs: outputs,
		})
	}
	to := core.StateError
	switch state {
	case core.StateDone:
		to = core.StateDone
	case core.StateCancelled:
		errMsg = "container: coalesced execution was cancelled"
	}
	for _, f := range followers {
		jm.completeFollower(f, to, outputs, errMsg)
	}
}

// failFlight resolves a flight whose leader never ran (queue overflow),
// failing any followers that joined it.
func (jm *JobManager) failFlight(key, errMsg string) {
	followers, _ := jm.memo.settle(key, "", "", nil, -1)
	for _, f := range followers {
		jm.completeFollower(f, core.StateError, nil, errMsg)
	}
}

// completeFollower lands a coalesced follower, which goes straight from
// WAITING to its terminal state, with the leader's result.  Followers their
// own clients already cancelled are left untouched.
func (jm *JobManager) completeFollower(rec *jobRecord, state core.JobState, outputs core.Values, errMsg string) {
	jm.land(rec, core.StateWaiting, state, outputs.Clone(), errMsg)
}
