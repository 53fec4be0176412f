package container

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// This file is the execution half of the JobManager: the worker pool, the
// two transitions of the job state machine (beginJob: WAITING → RUNNING,
// land: live → terminal) and the one function that runs dequeued jobs
// through their adapter.

func (jm *JobManager) worker() {
	defer jm.wg.Done()
	// One batch slice serves every job of the worker: execute keeps no
	// reference to it, and it is cleared after each use so it holds no
	// landed record alive.
	batch := make([]*jobRecord, 0, max(jm.batchMax, 1))
	for {
		rec := jm.queue.pop()
		if rec == nil {
			return
		}
		recs := jm.drainBatch(append(batch[:0], rec))
		jm.execute(recs)
		clear(recs)
	}
}

// drainBatch appends queued jobs of the service of batch's one record to
// batch, making one micro-batch of up to jm.batchMax members, that record
// first.  The batch stays that record alone when batching does not apply —
// batching disabled, service gone or not declared "batch", adapter without
// InvokeBatch, or no second job available.
// Draining takes only from the head of the queue and stops at the first job
// of another service, which stays there for the next worker, so batching
// never reorders jobs.
func (jm *JobManager) drainBatch(batch []*jobRecord) []*jobRecord {
	rec := batch[0]
	if jm.batchMax < 2 {
		return batch
	}
	svc, err := jm.c.service(rec.service)
	if err != nil || !svc.desc.Batch {
		return batch
	}
	if _, ok := svc.adapter.(adapter.BatchInterface); !ok {
		return batch
	}
	return jm.queue.popSame(batch, jm.batchMax)
}

// runningJob carries the per-execution state of one job from its
// WAITING→RUNNING transition to its terminal state: beginJob → prepare →
// (adapter) → complete/finish, with cleanup deferred by execute.  It lives
// in the job's record (jobRecord.run).  It is also the job's context
// (jobctx.go) and the Reporter of its adapter request.
type runningJob struct {
	jm  *JobManager
	rec *jobRecord
	// parent is the execution parent of the job's context: jm.baseCtx, or
	// execute's one WithTimeout of it when the service has a deadline.
	parent   context.Context
	deadline time.Duration
	workDir  string
	req      adapter.Request // filled in by prepare
	// ctxMu guards the context's own state; rec.mu, held across journal
	// appends, is never taken under it.
	ctxMu sync.Mutex
	// err is the job's own cancellation, set by cancel before the context
	// is materialised.
	err error
	// inner is the context materialised by the first Done call, and
	// cancelInner its cancel function.
	inner       context.Context
	cancelInner context.CancelFunc
}

// beginJob moves a dequeued job to RUNNING and sets up its execution state,
// returning nil when the job is no longer WAITING (cancelled while queued).
// parent is the execution parent of the job's context, which already
// carries the execution deadline.  The state is set up under rec.mu before
// the job becomes RUNNING, so a DELETE that sees it RUNNING can cancel it.
func (jm *JobManager) beginJob(rec *jobRecord, parent context.Context, deadline time.Duration) *runningJob {
	rec.mu.Lock()
	cur := rec.phase.Load()
	if cur.state != phaseWaiting {
		// Cancelled while queued: its landing called queue.leave.
		rec.mu.Unlock()
		return nil
	}
	next := cur.next()
	next.state = phaseRunning
	next.started = time.Now()
	next.queueWait = core.Duration(next.started.Sub(rec.created))
	rj := &rec.run
	*rj = runningJob{jm: jm, rec: rec, parent: parent, deadline: deadline}
	jm.commit(rec, next)
	rec.mu.Unlock()

	jm.queue.leave()
	metJobsRunning.Add(1)
	jm.running.Add(1)
	metQueueWait.Observe(next.queueWait.Std().Seconds())
	if sw := rec.sweep; sw != nil {
		sw.childTransition(core.StateWaiting, core.StateRunning, "")
	}
	return rj
}

// landHook, when set, is called by land between building a job's terminal
// phase and journaling it, with the job of that phase (tests hold a landing
// there).
var landHook func(*core.Job)

// land is the single terminal transition of a published record: it moves
// rec from the live state `from` to the terminal state `to` and runs every
// consequence of that exactly once.  It reports false, changing nothing,
// when the record is no longer in `from` (another route landed it first, or
// a worker picked it up), which is what makes every caller idempotent.
// Together with beginJob it is the only place a published job changes state.
// The terminal phase is journaled (memo_put, then job_end), published and
// stored before done closes; a shutdown closes the journal first, so it
// records none of its own cancels.
func (jm *JobManager) land(rec *jobRecord, from, to core.JobState, outputs core.Values, errMsg string) bool {
	size := int64(-1)
	if rec.memoKey != "" && to == core.StateDone {
		size = jm.memo.sizeOf(outputs) // marshalling stays outside both locks
	}
	rec.mu.Lock()
	cur := rec.phase.Load()
	if cur.state.jobState() != from {
		rec.mu.Unlock()
		return false
	}
	now := time.Now()
	next := cur.next()
	next.state = phaseOf(to)
	next.outputs = outputs
	next.finished = now
	if from == core.StateRunning {
		next.runTime = core.Duration(now.Sub(next.started))
	} else {
		// Never ran (cancelled while queued, or a coalesced follower handed
		// its leader's result): its whole life was queue wait.
		next.queueWait = core.Duration(now.Sub(rec.created))
	}
	if cur.more != nil || errMsg != "" {
		more := cur.moreCopy()
		more.err = errMsg
		next.more = more
	}
	queued := rec.queued
	// A leader settles its flight before anyone can see it terminal, so a
	// client that observes DONE and resubmits finds the result cached.
	var followers []*jobRecord
	var stored bool
	if rec.memoKey != "" {
		followers, stored = jm.memo.settle(rec.memoKey, rec.service, rec.id, outputs, size)
	}
	if landHook != nil {
		landHook(rec.image(next))
	}
	if jm.c.journal != nil {
		jm.c.commits.RLock()
		if stored {
			jm.c.logRecord(journal.KindMemoPut, journal.MemoPutRecord{
				Key: rec.memoKey, Service: rec.service, JobID: rec.id, Outputs: outputs,
			})
		}
		jm.logJobEnd(rec, next)
	}
	jm.commit(rec, next)
	if jm.c.journal != nil {
		jm.c.commits.RUnlock()
	}
	// A waiter that came before this landing made done; later ones find
	// the job terminal and never make it.
	done := rec.done
	rec.mu.Unlock()
	if done != nil {
		close(done)
	}

	if from == core.StateRunning {
		metJobsRunning.Add(-1)
		jm.running.Add(-1)
		metRunTime.Observe(next.runTime.Std().Seconds())
	} else if queued {
		jm.queue.leave()
	}
	jobsCompletedBy[to].Inc()
	// A sweep child logs at Debug: its sweep writes one "sweep finished"
	// record for the whole campaign.
	level := slog.LevelInfo
	if rec.sweep != nil {
		level = slog.LevelDebug
	}
	obs.Log(context.Background(), level, "job finished",
		slog.String("request_id", rec.traceID),
		slog.String("job_id", rec.id),
		slog.String("service", rec.service),
		slog.String("state", string(to)),
		slog.Duration("queue_wait", next.queueWait.Std()),
		slog.Duration("run_time", next.runTime.Std()))
	// A DONE leader's coalesced followers complete with its outputs; any
	// other outcome fails them rather than leaving them waiting on a job
	// that will never run.
	jm.settleFlight(followers, to, outputs, errMsg)
	if sw := rec.sweep; sw != nil {
		sw.childTransition(from, to, errMsg)
	}
	return true
}

// cancelPending moves a job that never reached a worker to CANCELLED and
// releases its waiters, reporting whether it did.  Running and terminal jobs
// are left to their worker.
func (jm *JobManager) cancelPending(rec *jobRecord) bool {
	return jm.land(rec, core.StateWaiting, core.StateCancelled, nil, "")
}

// cancelJob cancels one live job without destroying its record: queued jobs
// move straight to CANCELLED, running jobs have their context cancelled and
// land wherever their worker puts them.  Terminal jobs are left alone — this
// is the cancel half of Delete, which whole-sweep cancellation applies to
// every child without tearing down finished results.
func (jm *JobManager) cancelJob(rec *jobRecord) {
	if jm.cancelPending(rec) {
		return
	}
	// Not WAITING, and states only move forward: a worker's beginJob set up
	// the job's context under the same lock that made the job RUNNING.  A
	// job that has already landed needs no cancel: cleanup gives it one.
	rec.mu.Lock()
	if rec.phase.Load().state == phaseRunning {
		rec.run.cancel()
	}
	rec.mu.Unlock()
}

// finish lands the running job from its adapter outcome: DONE with outputs,
// or — by what the job's context says about the error — deadline overrun
// (ERROR), cancellation (CANCELLED) or plain failure (ERROR).  The first
// caller wins, so execute's panic guard can invoke it over members that
// already landed.
func (rj *runningJob) finish(outputs core.Values, err error) {
	state, errMsg := core.StateDone, ""
	overrun := false
	switch {
	case err == nil:
	case errors.Is(rj.Err(), context.DeadlineExceeded):
		// The job overran its execution deadline: a fault of the job, not
		// a client cancellation.
		state, overrun = core.StateError, true
		errMsg = fmt.Sprintf("container: job exceeded its %s execution deadline", rj.deadline)
	case rj.Err() != nil:
		state = core.StateCancelled
	default:
		state, errMsg = core.StateError, err.Error()
	}
	if rj.jm.land(rj.rec, core.StateRunning, state, outputs, errMsg) && overrun {
		metDeadlineOverruns.Inc()
	}
}

// prepare creates the job's scratch directory, stages file inputs into it
// and assembles the adapter request.  The directory is created lazily: a
// job with no file inputs whose adapter reports (WorkDirCapability) that it
// never reads WorkDir skips the create/remove round trip entirely — for
// short in-process computations those two filesystem operations dominate
// the whole job, and a wide campaign pays them per child.
func (rj *runningJob) prepare(ad adapter.Interface) error {
	rec, jm := rj.rec, rj.jm
	needDir := rec.fileInputs
	if !needDir {
		if cap, ok := ad.(adapter.WorkDirCapability); !ok || cap.NeedsWorkDir() {
			needDir = true
		}
	}
	var files map[string]string
	if needDir {
		workDir, err := os.MkdirTemp(jm.c.workRoot, "job-"+rec.id[:8]+"-")
		if err != nil {
			return fmt.Errorf("container: create work dir: %w", err)
		}
		rj.workDir = workDir
		// A blob pulled from another replica is released with the job, or
		// with the whole campaign when the job is a sweep child.
		owner := rec.id
		if rec.sweep != nil {
			owner = rec.sweep.id
		}
		if files, err = jm.stageInputs(rj, rec.inputs, workDir, owner); err != nil {
			return err
		}
	}
	rj.req = adapter.Request{
		JobID:    rec.id,
		Service:  rec.service,
		Owner:    rec.owner,
		Inputs:   rec.inputs,
		Files:    files,
		WorkDir:  rj.workDir,
		Reporter: rj,
	}
	return nil
}

// Progress implements adapter.Reporter: it commits a phase whose log is
// the current one (appended past every older phase's length) plus msg.  It
// is a no-op once the job has landed, which must stay as its journaled end
// says, and past 1000 lines.
func (rj *runningJob) Progress(msg string) {
	rec := rj.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	cur := rec.phase.Load()
	if cur.state.terminal() || cur.more != nil && len(cur.more.log) >= 1000 {
		return
	}
	next := cur.next()
	next.more = cur.moreCopy()
	next.more.log = append(next.more.log, msg)
	rj.jm.commit(rec, next)
}

// SetBlockState implements adapter.Reporter: it commits a phase with a
// copy of the block states that sets block's.  It is a no-op once the job
// has landed.
func (rj *runningJob) SetBlockState(block string, state core.JobState) {
	rec := rj.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	cur := rec.phase.Load()
	if cur.state.terminal() {
		return
	}
	next := cur.next()
	next.more = cur.moreCopy()
	blocks := make(map[string]core.JobState, len(next.more.blocks)+1)
	maps.Copy(blocks, next.more.blocks)
	blocks[block] = state
	next.more.blocks = blocks
	rj.jm.commit(rec, next)
}

// cleanup cancels the job's context and removes its scratch directory, if
// prepare created one.
func (rj *runningJob) cleanup() {
	rj.cancel()
	if rj.workDir != "" {
		_ = os.RemoveAll(rj.workDir)
	}
}

// complete publishes the adapter result and lands the job in its terminal
// state.
func (rj *runningJob) complete(svc *service, res *adapter.Result, err error) {
	if err != nil {
		rj.finish(nil, err)
		return
	}
	outputs, err := rj.jm.publishOutputs(res, rj.rec.id)
	if err != nil {
		rj.finish(nil, err)
		return
	}
	if err := svc.desc.ValidateOutputs(outputs); err != nil {
		rj.finish(nil, fmt.Errorf("container: adapter produced invalid outputs: %w", err))
		return
	}
	rj.finish(outputs, nil)
}

// execute runs one dequeued batch (usually of one) through the service's
// adapter.  The batch shares one execution parent, which carries the
// deadline; each member runs under its own context, its runningJob, so
// DELETE of one member cancels that member alone.  A single ready member,
// or an adapter that cannot batch, goes through Invoke; otherwise the
// members share one InvokeBatch call under the parent, where a failed item
// fails only its job and an error (or panic) of the batch as a whole fails
// every member that has not finished.
func (jm *JobManager) execute(recs []*jobRecord) {
	// Resolve the service first: its description may override the
	// container's default execution deadline.  drainBatch batches one
	// service only.  Jobs of a service undeployed while they were queued
	// fail with the lookup error.
	svc, svcErr := jm.c.service(recs[0].service)
	deadline := jm.deadline
	if svc != nil && svc.desc.Deadline > 0 {
		deadline = svc.desc.Deadline.Std()
	}
	parent := jm.baseCtx
	if deadline > 0 {
		var cancel context.CancelFunc
		parent, cancel = context.WithTimeout(parent, deadline)
		defer cancel()
	}

	// Begin every member; jobs cancelled while queued drop out here.  A
	// single record (a Table 1 job, a sweep child) needs no heap slices.
	var activeOne, readyOne [1]*runningJob
	active, ready := activeOne[:0], readyOne[:0]
	if len(recs) > 1 {
		active, ready = make([]*runningJob, 0, len(recs)), make([]*runningJob, 0, len(recs))
	}
	for _, rec := range recs {
		if rj := jm.beginJob(rec, parent, deadline); rj != nil {
			active = append(active, rj)
		}
	}
	if len(active) == 0 {
		return
	}
	// The panic guard: a panicking adapter (or staging/publishing step)
	// marks the unfinished members ERROR with the captured stack instead of
	// killing the worker goroutine and wedging every waiter.  It runs
	// before cleanup cancels the members' contexts, so finish still reads
	// why the run ended.
	defer func() {
		if r := recover(); r != nil {
			metWorkerPanics.Inc()
			err := fmt.Errorf("container: adapter panic: %v\n%s", r, panicStack())
			for _, rj := range active {
				rj.finish(nil, err)
			}
		}
		for _, rj := range active {
			rj.cleanup()
		}
	}()

	// Stage every member; a member whose staging fails drops out of the
	// invocation without affecting the rest.
	for _, rj := range active {
		err := svcErr
		if err == nil {
			err = rj.prepare(svc.adapter)
		}
		if err != nil {
			rj.finish(nil, err)
			continue
		}
		ready = append(ready, rj)
	}
	if len(ready) == 0 {
		return
	}
	batcher, _ := svc.adapter.(adapter.BatchInterface)
	if len(ready) < 2 || batcher == nil {
		for _, rj := range ready {
			res, err := svc.adapter.Invoke(rj, &rj.req)
			rj.complete(svc, res, err)
		}
		return
	}
	metBatchSize.Observe(float64(len(ready)))
	reqs := make([]*adapter.Request, len(ready))
	for i, rj := range ready {
		reqs[i] = &rj.req
	}
	items, err := batcher.InvokeBatch(parent, reqs)
	if err == nil && len(items) != len(reqs) {
		err = fmt.Errorf("container: batch adapter returned %d results for %d jobs", len(items), len(reqs))
	}
	for i, rj := range ready {
		switch {
		case err != nil:
			rj.finish(nil, err)
		case items[i].Err != nil:
			rj.finish(nil, items[i].Err)
		case items[i].Result == nil:
			rj.finish(nil, fmt.Errorf("container: batch adapter returned no result for job %s", rj.rec.id))
		default:
			rj.complete(svc, items[i].Result, nil)
		}
	}
}

// stageInputs resolves file-reference input values into local files inside
// the job work directory and returns the parameter→path map.  Local file
// IDs are hardlinked (or stream-copied) from the container's file store;
// absolute URLs (produced by other containers in a workflow) are streamed
// over HTTP straight into the work dir, except when they point back at this
// container, in which case the transfer is short-cut to the local path.
// No path buffers whole files on the heap.  owner is the job or sweep that a
// blob pulled from another replica is registered to.
func (jm *JobManager) stageInputs(ctx context.Context, inputs core.Values, workDir, owner string) (map[string]string, error) {
	files := make(map[string]string)
	for name, val := range inputs {
		ref, ok := core.FileRefID(val)
		if !ok {
			continue
		}
		path := filepath.Join(workDir, "in_"+name)
		if err := jm.stageFile(ctx, ref, path, owner); err != nil {
			return nil, fmt.Errorf("container: stage input %q: %w", name, err)
		}
		files[name] = path
	}
	return files, nil
}

// stageFile materialises the file behind ref at path.
func (jm *JobManager) stageFile(ctx context.Context, ref, path, owner string) error {
	if id, ok := jm.c.localFileID(ref); ok {
		// A federation ID minted on another replica is pulled into the
		// local content-addressed store first (once, digest-verified);
		// local IDs pass straight through.
		if err := jm.c.ensureLocalFile(ctx, id, owner); err != nil {
			return err
		}
		err := jm.c.files.StageTo(id, path)
		if core.IsNotFound(err) {
			// A pulled copy belongs to the consumer that pulled it: if that
			// one was deleted between the check and the link, pull again.
			if err = jm.c.ensureLocalFile(ctx, id, owner); err == nil {
				err = jm.c.files.StageTo(id, path)
			}
		}
		return err
	}
	if strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ref, nil)
		if err != nil {
			return err
		}
		resp, err := jm.c.httpClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", ref, resp.Status)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		// Read one byte past the limit so an oversized file is detected
		// and fails the job instead of being silently truncated.
		n, err := rest.Copy(f, io.LimitReader(resp.Body, maxFileBytes+1))
		if closeErr := f.Close(); err == nil {
			err = closeErr
		}
		if err == nil && n > maxFileBytes {
			err = fmt.Errorf("GET %s: file exceeds the %d-byte staging limit", ref, int64(maxFileBytes))
		}
		if err != nil {
			_ = os.Remove(path)
			return err
		}
		return nil
	}
	return jm.c.files.StageTo(ref, path)
}

// publishOutputs converts adapter result files into file resources and
// merges them with inline outputs.  The adapter handed res.Outputs over, so
// a result without files keeps that map as the job's outputs; one with
// files gets a copy to add the references to.
func (jm *JobManager) publishOutputs(res *adapter.Result, jobID string) (core.Values, error) {
	if len(res.Files) == 0 {
		if res.Outputs == nil {
			return core.Values{}, nil
		}
		return res.Outputs, nil
	}
	outputs := make(core.Values, len(res.Outputs)+len(res.Files))
	for k, v := range res.Outputs {
		outputs[k] = v
	}
	for name, path := range res.Files {
		// Hardlink (or stream-copy) the work-dir file into the store; the
		// adapter is done with it and the work dir is about to be removed.
		id, err := jm.c.files.PutFile(path, jobID)
		if err != nil {
			return nil, fmt.Errorf("container: publish output %q: %w", name, err)
		}
		outputs[name] = core.FileRef(jm.c.fileURI(id))
	}
	return outputs, nil
}

// panicStack captures the panicking goroutine's stack, truncated so a deep
// recursion does not bloat the job record (the head frames carry the
// culprit).
func panicStack() string {
	const maxStack = 8 << 10
	stack := debug.Stack()
	if len(stack) > maxStack {
		stack = append(stack[:maxStack], []byte("\n... stack truncated")...)
	}
	return string(stack)
}

// maxFileBytes bounds remote file staging and client uploads.  It is a
// variable only so tests can exercise the overflow path without moving a
// gibibyte.
var maxFileBytes int64 = 1 << 30
