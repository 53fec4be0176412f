package container

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
)

// This file is the container side of the durability subsystem (DESIGN.md
// §5i).  The write path journals every control-plane mutation — job
// lifecycle, sweep membership, file-store references, memo entries — through
// the logging helpers below; Recover replays the journal at boot and rebuilds
// the in-memory state: terminal jobs verbatim, WAITING jobs re-queued,
// RUNNING jobs re-driven from the start (executions died with the process),
// sweeps re-derived from their one campaign record, and the memo table
// re-validated against the file store before re-entering the cache.
// Checkpoint periodically folds the whole state into a snapshot so the log
// stays short.

// logRecord appends one record to the container's journal, if journaling is
// enabled.  Append errors are logged, not propagated: the in-memory state is
// already mutated, and failing the client request now would desynchronize the
// two — better to serve degraded durability and say so loudly.  Appends after
// Close has closed the journal are the shutdown's own transitions and are
// dropped silently (see Close).
func (c *Container) logRecord(kind journal.Kind, v any) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(kind, v); err != nil && !errors.Is(err, journal.ErrClosed) {
		c.logger.Printf("container: journal: append %v: %v", kind, err)
	}
}

// logJob journals the job of rec in phase p in full (submit time, cache
// hits).
func (jm *JobManager) logJob(rec *jobRecord, p *jobPhase) {
	if jm.c.journal == nil {
		return
	}
	jm.c.logRecord(journal.KindJob, jobLogRecord{rec, p})
}

// logJobEnd journals a job's terminal phase p with its whole timeline: a
// job is journaled as its submit image and this record, with no record for
// the start in between.
func (jm *JobManager) logJobEnd(rec *jobRecord, p *jobPhase) {
	if jm.c.journal == nil {
		return
	}
	more := p.more
	if more == nil {
		more = &noMore
	}
	jm.c.logRecord(journal.KindJobEnd, journal.JobEndRecord{
		ID: rec.id, State: p.state.jobState(), Outputs: p.outputs, Error: more.err,
		Finished: p.finished, Destruction: rec.destruction(p), Started: p.started,
		QueueWait: p.queueWait, RunTime: p.runTime, Log: more.log, Blocks: more.blocks,
	})
}

// replayJob accumulates everything the journal said about one job ID.  The
// records tolerate arrival out of order: a worker can take a job the instant
// it is queued and append its end record before the submitter appends the
// job's image, so each piece is folded in independently and resolved at the
// end.
type replayJob struct {
	// hasJob marks that a full KindJob image was seen.  A job with no image
	// that is not a sweep child was never acknowledged to a client (the
	// image is appended before Submit returns) and is dropped.
	hasJob  bool
	job     *core.Job
	sweepID string
	ttl     time.Duration
	// started is the start time of a KindJobStart record, which only logs
	// written before end records carried the timeline contain.
	started time.Time
	end     *journal.JobEndRecord
	purged  bool
}

// replayState is the fold of one journal replay: per-ID upsert maps, last
// record wins, with insertion order retained so requeue order is stable.
type replayState struct {
	baseURL    string
	jobs       map[string]*replayJob
	jobOrder   []string
	sweeps     map[string]*journal.SweepRecord
	sweepOrder []string
	sweepGone  map[string]bool
	files      map[string]*journal.FilePutRecord
	fileOrder  []string
	memos      map[string]*journal.MemoPutRecord
	memoOrder  []string
	counts     map[string]int
}

func newReplayState() *replayState {
	return &replayState{
		jobs:      make(map[string]*replayJob),
		sweeps:    make(map[string]*journal.SweepRecord),
		sweepGone: make(map[string]bool),
		files:     make(map[string]*journal.FilePutRecord),
		memos:     make(map[string]*journal.MemoPutRecord),
		counts:    make(map[string]int),
	}
}

func (st *replayState) job(id string) *replayJob {
	rj, ok := st.jobs[id]
	if !ok {
		rj = &replayJob{}
		st.jobs[id] = rj
		st.jobOrder = append(st.jobOrder, id)
	}
	return rj
}

func (st *replayState) apply(kind journal.Kind, data []byte) error {
	switch kind {
	case journal.KindJob:
		var r journal.JobRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		if r.Job == nil || r.Job.ID == "" {
			return nil
		}
		rj := st.job(r.Job.ID)
		rj.hasJob = true
		rj.job = r.Job
		rj.sweepID = r.SweepID
		rj.ttl = r.TTL.Std()
	case journal.KindJobStart:
		var r journal.JobStartRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		st.job(r.ID).started = r.Started
	case journal.KindJobEnd:
		var r journal.JobEndRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		st.job(r.ID).end = &r
	case journal.KindJobPurge:
		var r journal.JobPurgeRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		// Keep the end record: a purged sweep child still counts toward its
		// sweep's terminal histogram.
		st.job(r.ID).purged = true
	case journal.KindSweep:
		var r journal.SweepRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		if _, seen := st.sweeps[r.ID]; !seen {
			st.sweepOrder = append(st.sweepOrder, r.ID)
		}
		st.sweeps[r.ID] = &r
	case journal.KindSweepPurge:
		var r journal.SweepPurgeRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		st.sweepGone[r.ID] = true
	case journal.KindFilePut:
		var r journal.FilePutRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		if _, seen := st.files[r.ID]; !seen {
			st.fileOrder = append(st.fileOrder, r.ID)
		}
		st.files[r.ID] = &r
	case journal.KindFileDel:
		var r journal.FileDelRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		delete(st.files, r.ID)
	case journal.KindMemoPut:
		var r journal.MemoPutRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		if _, seen := st.memos[r.Key]; !seen {
			st.memoOrder = append(st.memoOrder, r.Key)
		}
		st.memos[r.Key] = &r
	case journal.KindBaseURL:
		var r journal.BaseURLRecord
		if err := journal.Decode(data, &r); err != nil {
			return err
		}
		st.baseURL = r.URL
	default:
		// A kind this container does not own (catalogue records in a shared
		// journal, or a future kind): skip, do not fail the boot.
		return nil
	}
	st.counts[kind.String()]++
	return nil
}

// Recover replays the write-ahead journal and rebuilds the container state.
// Call it once, after every service is deployed (re-driven jobs need their
// adapters) and before the listener starts serving.  With journaling
// disabled it is a no-op.  Recover also starts the journal's checkpoint loop
// — deliberately not started in New, so a checkpoint can never run before the
// journal it would truncate has been replayed.
func (c *Container) Recover() error {
	if c.journal == nil {
		return nil
	}
	st := newReplayState()
	if err := c.journal.Replay(st.apply); err != nil {
		return fmt.Errorf("container: recover: %w", err)
	}

	// Base URL first: recovered memo outputs and job outputs embed absolute
	// file URIs minted under it.  Re-setting the same URL later (when the
	// listener comes up) is then a no-op that keeps the memo table.
	if st.baseURL != "" {
		c.SetBaseURL(st.baseURL)
	}

	// File index: every live ID whose blob survived.  Blobs lost with the
	// crash (SyncOff page cache) drop their IDs with a log line.
	files := 0
	for _, id := range st.fileOrder {
		fr, ok := st.files[id]
		if !ok {
			continue
		}
		if err := c.files.restoreFile(fr.ID, fr.Digest, fr.Size, fr.Owner); err != nil {
			c.logger.Printf("container: recover: %v", err)
			continue
		}
		files++
	}
	if n := c.files.gcOrphans(); n > 0 {
		c.logger.Printf("container: recover: removed %d orphan blobs/temp files", n)
	}

	jobs, sweeps, requeued := c.jobs.restoreState(st)
	memos := c.restoreMemo(st)

	for kind, n := range st.counts {
		metRecoveryReplayed.With(kind).Add(float64(n))
	}
	c.logger.Printf("container: recovered %d jobs (%d re-queued), %d sweeps, %d files, %d memo entries",
		jobs, requeued, sweeps, files, memos)
	c.journal.StartCheckpoints(c.snapInterval, c.snapBytes, func() {
		if err := c.Checkpoint(); err != nil {
			c.logger.Printf("container: checkpoint: %v", err)
		}
	})
	return nil
}

// rebuildJob resolves the replayed pieces of one job into its boot-time
// image: the last full image (or a synthesized sweep-child baseline) with
// the end record's terminal state and timeline folded in.  A job with no
// end record that is not terminal died with the process, RUNNING or still
// queued, and comes back WAITING for re-drive.
func rebuildJob(job *core.Job, rj *replayJob) *core.Job {
	if rj == nil {
		return job
	}
	switch end := rj.end; {
	case end != nil:
		job.State = end.State
		if end.Outputs != nil {
			job.Outputs = end.Outputs
		}
		job.Error = end.Error
		job.Finished = end.Finished
		job.Destruction = end.Destruction
		// An end record written before the timeline fields existed leaves
		// them zero; the image's own values (or an old start record) stand.
		switch {
		case !end.Started.IsZero():
			job.Started = end.Started
		case job.Started.IsZero():
			job.Started = rj.started
		}
		if end.QueueWait != 0 {
			job.QueueWait = end.QueueWait
		}
		if end.RunTime != 0 {
			job.RunTime = end.RunTime
		}
		if end.Log != nil {
			job.Log = end.Log
		}
		if end.Blocks != nil {
			job.Blocks = end.Blocks
		}
	case !job.State.Terminal():
		job.State = core.StateWaiting
		job.Started = time.Time{}
	}
	return job
}

// restoredRecord splits a replayed job into its record, with the
// destruction TTL ttl.  What admission learned about the request is learned
// again: the ID and trace are checked for escapes, and the service's input
// validation reports file inputs (staged as if present when the inputs no
// longer validate; a job whose service is gone fails before staging).  A
// terminal job keeps its journaled destruction time when Finished + ttl
// does not give it.
func (jm *JobManager) restoredRecord(job *core.Job, ttl time.Duration) *jobRecord {
	fileInputs := false
	if svc, err := jm.c.service(job.Service); err == nil {
		files, err := svc.desc.CheckInputs(job.Inputs)
		fileInputs = files || err != nil
	}
	rec := newJobRecord(jobRequest{
		id: job.ID, service: job.Service, owner: job.Owner, traceID: job.TraceID,
		inputs: job.Inputs, created: job.Created, submitted: job.Submitted,
		idPlain: core.PlainString(job.ID), tracePlain: core.PlainString(job.TraceID),
		fileInputs: fileInputs,
	})
	rec.ttl = ttl
	p := &rec.born
	p.state = phaseOf(job.State)
	p.started, p.finished = job.Started, job.Finished
	p.queueWait, p.runTime = job.QueueWait, job.RunTime
	p.outputs = job.Outputs
	if job.Error != "" || job.Log != nil || job.Blocks != nil {
		p.more = &phaseMore{err: job.Error, log: job.Log, blocks: job.Blocks}
	}
	if d := rec.destruction(p); p.state.terminal() && (!d.Equal(job.Destruction) || d.Location() != job.Destruction.Location()) {
		more := p.moreCopy()
		more.destruction, more.ownDestruction = job.Destruction, true
		p.more = more
	}
	return rec
}

// countInto folds one terminal (or waiting) child state into a sweep count
// histogram.
func countInto(counts *core.SweepCounts, state core.JobState) {
	switch state {
	case core.StateWaiting:
		counts.Waiting++
	case core.StateRunning:
		counts.Running++
	case core.StateDone:
		counts.Done++
	case core.StateError:
		counts.Error++
	case core.StateCancelled:
		counts.Cancelled++
	}
}

// restoreState rebuilds the job registry and the sweep table from a replay.
func (jm *JobManager) restoreState(st *replayState) (jobs, sweeps, requeued int) {
	// redriven collects every job that comes back live.  A run that died
	// with the process may have left files it owns behind (published
	// outputs, pulled inputs); they are discarded in one pass below, before
	// any re-drive starts.  A job that never started owns none: job-owned
	// files are created only after beginJob.
	redriven := make(map[string]bool)
	// live collects the records to re-queue: every re-driven child and job.
	var live []*jobRecord
	// Sweeps first: children link back to their sweepRecord.
	for _, sid := range st.sweepOrder {
		sr, ok := st.sweeps[sid]
		if !ok || st.sweepGone[sid] {
			continue
		}
		sw := &sweepRecord{
			jm:       jm,
			id:       sr.ID,
			service:  sr.Service,
			owner:    sr.Owner,
			traceID:  sr.TraceID,
			created:  sr.Created,
			width:    sr.Width,
			childIDs: sr.ChildIDs,
			template: sr.Template,
			points:   sr.Points,
			ttl:      sr.TTL.Std(),
			done:     make(chan struct{}),
		}
		spec := core.SweepSpec{Template: sr.Template}
		var lastFinish time.Time
		for i, cid := range sr.ChildIDs {
			rj := st.jobs[cid]
			if rj != nil && rj.purged {
				// Destroyed individually before the crash: its terminal state
				// still counts toward the sweep, but the record stays gone.
				state := core.StateCancelled
				if rj.end != nil {
					state = rj.end.State
				} else if rj.hasJob && rj.job.State.Terminal() {
					state = rj.job.State
				}
				countInto(&sw.counts, state)
				if state == core.StateError && sw.firstError == "" && rj.end != nil {
					sw.firstError = rj.end.Error
				}
				continue
			}
			var job *core.Job
			if rj != nil && rj.hasJob && rj.job != nil {
				job = rj.job
			} else {
				// Only the campaign record knows this child: re-derive its
				// inputs from template+points, exactly as SubmitSweep did.
				var override core.Values
				if i < len(sr.Points) {
					override = sr.Points[i]
				}
				job = &core.Job{
					ID: cid, Service: sr.Service, State: core.StateWaiting,
					Inputs: spec.MergePoint(override), Owner: sr.Owner,
					Created: sr.Created, Submitted: sr.Created, TraceID: sr.TraceID,
				}
			}
			job = rebuildJob(job, rj)
			rec := jm.restoredRecord(job, 0)
			rec.sweep = sw
			if job.State.Terminal() {
				if job.Finished.After(lastFinish) {
					lastFinish = job.Finished
				}
				if job.State == core.StateError && sw.firstError == "" {
					sw.firstError = job.Error
				}
			} else {
				redriven[cid] = true
				live = append(live, rec)
			}
			countInto(&sw.counts, job.State)
			sh := jm.shard(cid)
			sh.mu.Lock()
			sh.jobs[cid] = rec
			sh.mu.Unlock()
			jobs++
		}
		if sw.counts.Terminal() == sw.width {
			sw.finished = lastFinish
			if sw.finished.IsZero() {
				sw.finished = time.Now()
			}
			if sw.ttl > 0 {
				sw.destruction = sw.finished.Add(sw.ttl)
			}
			close(sw.done)
		} else {
			// Live again: count toward the active gauge.  Files the sweep
			// owns were restored with their owner, so finalize still
			// releases them.
			metSweepActive.Add(1)
		}
		jm.sweeps.mu.Lock()
		jm.sweeps.sweeps[sw.id] = sw
		jm.sweeps.mu.Unlock()
		sweeps++
	}

	// Standalone jobs.  Sweep children were handled above; a child whose
	// sweep was purged is dead with it.
	for _, id := range st.jobOrder {
		rj := st.jobs[id]
		if rj.sweepID != "" || !rj.hasJob || rj.job == nil || rj.purged {
			continue
		}
		rec := jm.restoredRecord(rebuildJob(rj.job, rj), rj.ttl)
		if !rec.born.state.terminal() {
			redriven[id] = true
			live = append(live, rec)
		}
		sh := jm.shard(id)
		sh.mu.Lock()
		sh.jobs[id] = rec
		sh.mu.Unlock()
		jobs++
	}

	// Nothing is queued yet, so no re-driven run can publish a file that
	// this pass would take for its dead predecessor's.
	jm.c.files.deleteOwnedByAny(redriven)

	// Re-queue everything in admission order (children of one sweep share
	// its creation time and keep point order).  A restart admits more than
	// the queue bound when that much work was live: it was all accepted.
	sort.SliceStable(live, func(i, k int) bool { return live[i].created.Before(live[k].created) })
	_ = jm.queue.push(false, live...) // Recover runs before Close can
	requeued = len(live)
	return jobs, sweeps, requeued
}

// restoreMemo re-enters replayed memo entries whose world still holds: the
// service is deployed and still deterministic, the backing job survived, and
// every file reference in the outputs resolves in the restored file store.
func (c *Container) restoreMemo(st *replayState) int {
	jm := c.jobs
	if jm.memo == nil {
		return 0
	}
	restored := 0
	for _, key := range st.memoOrder {
		mr, ok := st.memos[key]
		if !ok {
			continue
		}
		svc, err := c.service(mr.Service)
		if err != nil || !svc.desc.Deterministic {
			continue
		}
		if _, err := jm.record(mr.JobID); err != nil {
			// The backing job is gone; a hit would hand out orphaned URIs.
			continue
		}
		valid := true
		for _, v := range mr.Outputs {
			ref, isFile := core.FileRefID(v)
			if !isFile {
				continue
			}
			id, local := c.localFileID(ref)
			if !local {
				valid = false
				break
			}
			if _, err := c.files.Digest(id); err != nil {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		jm.memo.store(mr.Key, mr.Service, mr.JobID, mr.Outputs)
		restored++
	}
	return restored
}

// Checkpoint folds the container's full durable state into one journal
// snapshot and truncates the log behind it.  Mutations running concurrently
// land in segments after the snapshot's cut, and every apply path is
// last-wins, so snapshot+tail replay stays correct.  A job is journaled
// before it is visible, so the fold first waits out the job commits in
// flight (c.commits): whatever they appended before the cut is stored by
// the time the fold reads it.
func (c *Container) Checkpoint() error {
	if c.journal == nil {
		return fmt.Errorf("container: journaling is disabled")
	}
	jm := c.jobs
	return c.journal.Snapshot(func(app func(kind journal.Kind, v any) error) error {
		c.commits.Lock()
		c.commits.Unlock()
		if base := c.BaseURL(); base != "" {
			if err := app(journal.KindBaseURL, journal.BaseURLRecord{URL: base}); err != nil {
				return err
			}
		}
		var err error
		c.files.forEachFile(func(id, digest string, size int64, owner string) {
			if err != nil {
				return
			}
			err = app(journal.KindFilePut, journal.FilePutRecord{ID: id, Digest: digest, Size: size, Owner: owner})
		})
		if err != nil {
			return err
		}
		jm.sweeps.mu.RLock()
		sweeps := make([]*sweepRecord, 0, len(jm.sweeps.sweeps))
		for _, sw := range jm.sweeps.sweeps {
			sweeps = append(sweeps, sw)
		}
		jm.sweeps.mu.RUnlock()
		for _, sw := range sweeps {
			if err := app(journal.KindSweep, journal.SweepRecord{
				ID: sw.id, Service: sw.service, Owner: sw.owner, TraceID: sw.traceID,
				Created: sw.created, Width: sw.width, ChildIDs: sw.childIDs,
				Template: sw.template, Points: sw.points, TTL: core.Duration(sw.ttl),
			}); err != nil {
				return err
			}
		}
		// Full job images, sweep children included: the image carries the
		// whole resolved lifecycle, so replaying it needs no older records.
		for _, rec := range jm.allRecords() {
			if err := app(journal.KindJob, jobLogRecord{rec, rec.phase.Load()}); err != nil {
				return err
			}
		}
		if jm.memo != nil {
			jm.memo.forEach(func(key, service, jobID string, outputs core.Values) {
				if err != nil {
					return
				}
				err = app(journal.KindMemoPut, journal.MemoPutRecord{Key: key, Service: service, JobID: jobID, Outputs: outputs})
			})
		}
		return err
	})
}
