package container

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"mathcloud/internal/core"
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

// publishCachedJob registers a job of req that is born DONE: a cache hit.
// The cached outputs are cloned into its first phase, so the caller
// observes exactly the shape a real execution would have produced, minus
// the queue and the adapter.  Born terminal, the job is journaled (one
// record carries its whole lifecycle) and published before it enters the
// registry.
func (jm *JobManager) publishCachedJob(ctx context.Context, req jobRequest, outputs core.Values, ttl time.Duration) *jobRecord {
	rec := newJobRecord(req)
	rec.ttl = ttl
	rec.born.state = phaseDone
	rec.born.outputs = outputs.Clone()
	rec.born.started, rec.born.finished = req.created, req.created
	jm.register(rec)
	metJobsSubmitted.Inc()
	jobsCompletedBy[core.StateDone].Inc()
	obs.Log(ctx, slog.LevelInfo, "job served from computation cache",
		slog.String("request_id", req.traceID),
		slog.String("job_id", rec.id),
		slog.String("service", req.service))
	return rec
}

// settleFlight finishes a singleflight once land has settled (and journaled)
// it in the memo table: the followers land in the leader's terminal state —
// DONE with its outputs, otherwise failed.
func (jm *JobManager) settleFlight(followers []*jobRecord, state core.JobState, outputs core.Values, errMsg string) {
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
