package container

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
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
	// spill holds a job pulled off the queue by drainBatch that belongs to a
	// different service: the worker runs it next instead of re-enqueueing,
	// so draining never starves or reorders foreign jobs behind the batch.
	var spill *jobRecord
	for {
		var rec *jobRecord
		if spill != nil {
			rec, spill = spill, nil
		} else {
			select {
			case <-jm.closing:
				return
			case rec = <-jm.queue:
			}
		}
		jm.execute(jm.drainBatch(rec, &spill))
		// A finished job may have freed queue capacity for sweep children
		// that did not fit at submission time, or for recovered jobs still
		// in the restart backlog.
		jm.sweeps.pump()
		jm.pumpBacklog()
	}
}

// drainBatch collects queued jobs of rec's service into one micro-batch of
// up to jm.batchMax members, rec first.  The batch is rec alone when
// batching does not apply — batching disabled, service gone or not declared
// "batch", adapter without InvokeBatch, or no second job available.
// Draining stops at the first job of a different service, which is handed
// back through spill.
func (jm *JobManager) drainBatch(rec *jobRecord, spill **jobRecord) []*jobRecord {
	batch := []*jobRecord{rec}
	if jm.batchMax < 2 {
		return batch
	}
	// Service is immutable after Submit publishes the record.
	svc, err := jm.c.service(rec.job.Service)
	if err != nil || !svc.desc.Batch {
		return batch
	}
	if _, ok := svc.adapter.(adapter.BatchInterface); !ok {
		return batch
	}
	for len(batch) < jm.batchMax {
		select {
		case next := <-jm.queue:
			if next.job.Service == rec.job.Service {
				batch = append(batch, next)
				continue
			}
			*spill = next
		default:
		}
		break
	}
	return batch
}

// runningJob carries the per-execution state of one job from its
// WAITING→RUNNING transition to its terminal state: beginJob → prepare →
// (adapter) → complete/finish, with cleanup deferred by execute.
type runningJob struct {
	jm       *JobManager
	rec      *jobRecord
	ctx      context.Context
	deadline time.Duration
	jobID    string
	service  string
	owner    string
	trace    string
	inputs   core.Values
	workDir  string
	req      *adapter.Request
}

// beginJob moves a dequeued job to RUNNING and captures the fields its
// execution needs, returning nil when the job is no longer WAITING
// (cancelled while queued).  ctx must already wrap the execution deadline;
// cancel is retained on the record so DELETE can abort the run.
func (jm *JobManager) beginJob(rec *jobRecord, ctx context.Context, cancel context.CancelFunc, deadline time.Duration) *runningJob {
	rec.mu.Lock()
	if rec.job.State != core.StateWaiting {
		// Cancelled while queued.
		rec.mu.Unlock()
		return nil
	}
	rec.job.State = core.StateRunning
	rec.job.Started = time.Now()
	rec.job.QueueWait = core.Duration(rec.job.Started.Sub(rec.job.Created))
	rec.cancel = cancel
	rec.invalidate()
	rj := &runningJob{
		jm:       jm,
		rec:      rec,
		deadline: deadline,
		jobID:    rec.job.ID,
		service:  rec.job.Service,
		owner:    rec.job.Owner,
		trace:    rec.job.TraceID,
		inputs:   rec.job.Inputs.Clone(),
	}
	queueWait := rec.job.QueueWait.Std()
	rec.mu.Unlock()

	if rec.queued.CompareAndSwap(true, false) {
		metJobsWaiting.Add(-1)
	}
	metJobsRunning.Add(1)
	jm.running.Add(1)
	metQueueWait.Observe(queueWait.Seconds())
	// Re-enter the job's trace into the execution context: every outbound
	// call the adapter makes (workflow block invocations, file staging)
	// then carries the ingress X-Request-ID.
	if rj.trace != "" {
		ctx = obs.WithRequestID(ctx, rj.trace)
	}
	rj.ctx = ctx
	if sw := rec.sweep; sw != nil {
		sw.childTransition(core.StateWaiting, core.StateRunning, "")
	}
	if jm.c.journal != nil {
		jm.c.logRecord(journal.KindJobStart, journal.JobStartRecord{ID: rj.jobID, Started: rec.snapshot().Started})
	}
	jm.notifyJob(rec)
	return rj
}

// land is the single terminal transition of a published record: it moves
// rec from the live state `from` to the terminal state `to` and runs every
// consequence of that exactly once.  It reports false, changing nothing,
// when the record is no longer in `from` (another route landed it first, or
// a worker picked it up), which is what makes every caller idempotent.
// Together with beginJob it is the only place a published job changes state.
func (jm *JobManager) land(rec *jobRecord, from, to core.JobState, outputs core.Values, errMsg string) bool {
	size := int64(-1)
	if rec.memoKey != "" && to == core.StateDone {
		size = jm.memo.sizeOf(outputs) // marshalling stays outside both locks
	}
	rec.mu.Lock()
	if rec.job.State != from {
		rec.mu.Unlock()
		return false
	}
	now := time.Now()
	rec.job.State = to
	rec.job.Outputs = outputs
	rec.job.Error = errMsg
	rec.job.Finished = now
	if from == core.StateRunning {
		rec.job.RunTime = core.Duration(now.Sub(rec.job.Started))
	} else {
		// Never ran (cancelled while queued, or a coalesced follower handed
		// its leader's result): its whole life was queue wait.
		rec.job.QueueWait = core.Duration(now.Sub(rec.job.Created))
	}
	if rec.ttl > 0 {
		rec.job.Destruction = now.Add(rec.ttl)
	}
	runTime := rec.job.RunTime.Std()
	queueWait := rec.job.QueueWait.Std()
	// A leader settles its flight before anyone can see it terminal, so a
	// client that observes DONE and resubmits finds the result cached.
	var followers []*jobRecord
	var stored bool
	if rec.memoKey != "" {
		followers, stored = jm.memo.settle(rec.memoKey, rec.job.Service, rec.job.ID, outputs, size)
	}
	rec.invalidate()
	close(rec.done)
	rec.mu.Unlock()

	if from == core.StateRunning {
		metJobsRunning.Add(-1)
		jm.running.Add(-1)
		metRunTime.Observe(runTime.Seconds())
	} else if rec.queued.CompareAndSwap(true, false) {
		metJobsWaiting.Add(-1)
	}
	metJobsCompleted.With(strings.ToLower(string(to))).Inc()
	if logger := obs.Logger(); logger.Enabled(context.Background(), slog.LevelInfo) {
		// ID, Service and TraceID are immutable once the record is published.
		logger.LogAttrs(context.Background(), slog.LevelInfo, "job finished",
			slog.String("request_id", rec.job.TraceID),
			slog.String("job_id", rec.job.ID),
			slog.String("service", rec.job.Service),
			slog.String("state", string(to)),
			slog.Duration("queue_wait", queueWait),
			slog.Duration("run_time", runTime))
	}
	// A DONE leader's coalesced followers complete with its outputs; any
	// other outcome fails them rather than leaving them waiting on a job
	// that will never run.
	jm.settleFlight(rec, followers, stored, to, outputs, errMsg)
	if sw := rec.sweep; sw != nil {
		sw.childTransition(from, to, errMsg)
	}
	jm.logJobEnd(rec)
	jm.notifyJob(rec)
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
	// Not WAITING, and states only move forward: a worker's beginJob set
	// rec.cancel under the same lock that made the job RUNNING.  Cancelling
	// the context of a job that has already landed is a no-op.
	rec.mu.Lock()
	cancel := rec.cancel
	rec.mu.Unlock()
	if cancel != nil {
		cancel()
	}
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
	case errors.Is(rj.ctx.Err(), context.DeadlineExceeded):
		// The job overran its execution deadline: a fault of the job, not
		// a client cancellation.
		state, overrun = core.StateError, true
		errMsg = fmt.Sprintf("container: job exceeded its %s execution deadline", rj.deadline)
	case rj.ctx.Err() != nil:
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
	needDir := hasFileInputs(rj.inputs)
	if !needDir {
		if cap, ok := ad.(adapter.WorkDirCapability); !ok || cap.NeedsWorkDir() {
			needDir = true
		}
	}
	var files map[string]string
	if needDir {
		workDir, err := os.MkdirTemp(rj.jm.c.workRoot, "job-"+rj.jobID[:8]+"-")
		if err != nil {
			return fmt.Errorf("container: create work dir: %w", err)
		}
		rj.workDir = workDir
		// A blob pulled from another replica is released with the job, or
		// with the whole campaign when the job is a sweep child.
		owner := rj.jobID
		if rj.rec.sweep != nil {
			owner = rj.rec.sweep.id
		}
		if files, err = rj.jm.stageInputs(rj.ctx, rj.inputs, workDir, owner); err != nil {
			return err
		}
	}
	rec := rj.rec
	progress := func(msg string) {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.job.Log) < 1000 {
			rec.job.Log = append(rec.job.Log, msg)
			rec.invalidate()
		}
	}
	setBlockState := func(block string, state core.JobState) {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if rec.job.Blocks == nil {
			rec.job.Blocks = make(map[string]core.JobState)
		}
		rec.job.Blocks[block] = state
		rec.invalidate()
	}
	rj.req = &adapter.Request{
		JobID:         rj.jobID,
		Service:       rj.service,
		Owner:         rj.owner,
		Inputs:        rj.inputs,
		Files:         files,
		WorkDir:       rj.workDir,
		Progress:      progress,
		SetBlockState: setBlockState,
	}
	return nil
}

// cleanup removes the job's scratch directory, if prepare created one.
func (rj *runningJob) cleanup() {
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
	outputs, err := rj.jm.publishOutputs(res, rj.jobID)
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
// adapter.  The batch shares one execution deadline; each member of a real
// batch keeps its own cancellable child context, so DELETE of one member
// cancels that member alone.  A single ready member, or an adapter that
// cannot batch, goes through Invoke; otherwise the members share one
// InvokeBatch call, where a failed item fails only its job and an error (or
// panic) of the batch as a whole fails every member that has not finished.
func (jm *JobManager) execute(recs []*jobRecord) {
	// Resolve the service first: its description may override the
	// container's default execution deadline.  Service is immutable after
	// Submit publishes the record, and drainBatch batches one service only.
	// Jobs of a service undeployed while they were queued fail with the
	// lookup error.
	svc, svcErr := jm.c.service(recs[0].job.Service)
	deadline := jm.deadline
	if svc != nil && svc.desc.Deadline > 0 {
		deadline = svc.desc.Deadline.Std()
	}
	var batchCtx context.Context
	var batchCancel context.CancelFunc
	if deadline > 0 {
		batchCtx, batchCancel = context.WithTimeout(jm.baseCtx, deadline)
	} else {
		batchCtx, batchCancel = context.WithCancel(jm.baseCtx)
	}
	defer batchCancel()

	// Begin every member; jobs cancelled while queued drop out here.
	active := make([]*runningJob, 0, len(recs))
	for _, rec := range recs {
		ctx, cancel := batchCtx, batchCancel
		if len(recs) > 1 {
			ctx, cancel = context.WithCancel(batchCtx)
		}
		rj := jm.beginJob(rec, ctx, cancel, deadline)
		if rj == nil {
			cancel()
			continue
		}
		active = append(active, rj)
	}
	if len(active) == 0 {
		return
	}
	// The panic guard: a panicking adapter (or staging/publishing step)
	// marks the unfinished members ERROR with the captured stack instead of
	// killing the worker goroutine and wedging every waiter.
	defer func() {
		if r := recover(); r != nil {
			metWorkerPanics.Inc()
			err := fmt.Errorf("container: adapter panic: %v\n%s", r, panicStack())
			for _, rj := range active {
				rj.finish(nil, err)
			}
		}
	}()
	defer func() {
		for _, rj := range active {
			rj.cleanup()
		}
	}()

	// Stage every member; a member whose staging fails drops out of the
	// invocation without affecting the rest.
	ready := make([]*runningJob, 0, len(active))
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
			res, err := svc.adapter.Invoke(rj.ctx, rj.req)
			rj.complete(svc, res, err)
		}
		return
	}
	metBatchSize.Observe(float64(len(ready)))
	reqs := make([]*adapter.Request, len(ready))
	for i, rj := range ready {
		reqs[i] = rj.req
	}
	items, err := batcher.InvokeBatch(batchCtx, reqs)
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
			rj.finish(nil, fmt.Errorf("container: batch adapter returned no result for job %s", rj.jobID))
		default:
			rj.complete(svc, items[i].Result, nil)
		}
	}
}

// hasFileInputs reports whether any input value is a file reference that
// must be staged to disk.
func hasFileInputs(inputs core.Values) bool {
	for _, v := range inputs {
		if _, ok := core.FileRefID(v); ok {
			return true
		}
	}
	return false
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
// merges them with inline outputs.
func (jm *JobManager) publishOutputs(res *adapter.Result, jobID string) (core.Values, error) {
	outputs := core.Values{}
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
