package container

import (
	"context"
	"time"

	"mathcloud/internal/obs"
)

// A running job's context is its runningJob, which lives in the job's
// record, so a job costs no context of its own until something asks for its
// Done channel.  It behaves as obs.WithRequestID(context.WithCancel(parent),
// TraceID) would, where parent is the execution parent:
//
//   - Deadline is the parent's.
//   - Err is the job's own cancellation (DELETE of the running job, or
//     cleanup), else the parent's.
//   - Value answers the request-ID key with the job's TraceID, so every
//     outbound call the adapter makes (workflow block invocations, file
//     staging) carries the ingress X-Request-ID.
//   - The first Done call materialises a real context.WithCancel(parent)
//     (cancelled at once when the job already is); from then on Err and
//     every other key go to it, so a context derived from the job attaches
//     to it without a goroutine.  Before that, other keys answer nil, so
//     context.Cause falls back to Err.
//
// A job whose adapter never asks for Done (a script or native computation
// that polls Err) thus runs without creating or cancelling a context.

// Deadline returns the execution parent's deadline.
func (rj *runningJob) Deadline() (time.Time, bool) { return rj.parent.Deadline() }

// Done returns the channel of the materialised context, materialising it
// on the first call.
func (rj *runningJob) Done() <-chan struct{} {
	rj.ctxMu.Lock()
	defer rj.ctxMu.Unlock()
	if rj.inner == nil {
		if rj.err != nil {
			// Cancelled before: the parent's own end, even one that came
			// since, must not replace the job's error.
			rj.inner, rj.cancelInner = context.WithCancel(context.WithoutCancel(rj.parent))
			rj.cancelInner()
		} else {
			rj.inner, rj.cancelInner = context.WithCancel(rj.parent)
		}
	}
	return rj.inner.Done()
}

// Err returns the job's own cancellation error, else the parent's.
func (rj *runningJob) Err() error {
	rj.ctxMu.Lock()
	inner, err := rj.inner, rj.err
	rj.ctxMu.Unlock()
	switch {
	case inner != nil:
		return inner.Err()
	case err != nil:
		return err
	}
	return rj.parentErr()
}

// parentErr returns the parent's error, looking at its Done channel first
// so that a live parent's lock, which every worker shares, is not taken.
func (rj *runningJob) parentErr() error {
	select {
	case <-rj.parent.Done():
		return rj.parent.Err()
	default:
		return nil
	}
}

// Value answers the request-ID key with the job's TraceID, and every other
// key from the materialised context, or with nil before there is one.
func (rj *runningJob) Value(key any) any {
	if trace := rj.rec.traceID; trace != "" && obs.IsRequestIDKey(key) {
		return trace
	}
	rj.ctxMu.Lock()
	inner := rj.inner
	rj.ctxMu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.Value(key)
}

// cancel cancels the job's context, as the cancel function of a
// context.WithCancel(parent) would: a context whose parent has already
// ended keeps the parent's error.  DELETE of the running job and cleanup
// call it.
func (rj *runningJob) cancel() {
	rj.ctxMu.Lock()
	cancel := rj.cancelInner
	if cancel == nil && rj.err == nil && rj.parentErr() == nil {
		rj.err = context.Canceled
	}
	rj.ctxMu.Unlock()
	if cancel != nil {
		cancel()
	}
}
