package container

import (
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
)

// A job, as UWS splits it, is the request a client sent, which never
// changes, and the phase it is in, which every transition replaces.  The
// record keeps the request once (jobRequest) and publishes the phase as a
// chain of small immutable images (jobPhase); a transition copies only the
// phase.  Every server representation of the job — response bodies, pages,
// SSE data and the journal's job record — is the job the two halves make,
// built on the stack and written by core.JobEncoder (appendJSON).  Only the
// Go API hands out a *core.Job, built once per phase.

// jobRecord is the container's internal state for one job.  Every
// transition (beginJob, land, an adapter's Progress and SetBlockState)
// builds the next phase under mu, journals it if the transition is
// journaled, publishes it and stores it in phase; a landing closes done, if
// a waiter made it, after that.  Readers Load phase, take no lock and copy
// nothing (eventImage and Wait are the exceptions).  Holding mu from the
// build to the store keeps one job's stores in order.
type jobRecord struct {
	jobRequest
	phase atomic.Pointer[jobPhase]
	mu    sync.Mutex
	// done is closed when the job lands.  The first Wait on the live job
	// makes it, under mu; a job nobody waits on never has one.
	done chan struct{}
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
	// transitions notify the sweep OUTSIDE rec.mu (lock order in sweep.go).
	sweep *sweepRecord
	// ttl is the job's destruction TTL (UWS-style): once it is terminal its
	// destruction time is Finished + ttl, and the reaper purges it past that
	// instant.  Zero keeps the job until an explicit DELETE.  Immutable once
	// the record is published.  Sweep children carry zero — retention is
	// governed by the sweep's own TTL.
	ttl time.Duration
	// queued marks a record the run queue took while it was WAITING; it is
	// guarded by mu.  The queue's waiting count and the queue-depth gauge
	// include such records, and the one transition that takes the record
	// out of WAITING — beginJob, or land cancelling it — takes it out of
	// both (runQueue.leave).
	queued bool
	// born is the job's first phase (WAITING, or DONE from the cache),
	// embedded so a job and its record are one allocation.  The builder of
	// the record may set it until the record is published; never after.
	born jobPhase
	// run is the job's execution state, embedded for the same reason.
	run runningJob
}

// jobRequest is the immutable half of a job: what the client sent and what
// admission learned about it.
type jobRequest struct {
	id, service, owner, traceID string
	inputs                      core.Values
	created, submitted          time.Time
	// idPlain and tracePlain report that the ID and the trace ID encode as
	// they are (core.PlainString): a minted ID is plain when its replica
	// prefix is, a replayed one is checked once at replay, and a trace is
	// checked once per submission or campaign.
	idPlain, tracePlain bool
	// fileInputs reports that an input is a file reference, which prepare
	// stages: learned by input validation at admission.
	fileInputs bool
}

// newJobRecord returns a record of req whose first phase is born, WAITING
// until its builder sets it otherwise.
func newJobRecord(req jobRequest) *jobRecord {
	rec := &jobRecord{jobRequest: req}
	rec.phase.Store(&rec.born)
	return rec
}

// phaseState is a job state in one byte.
type phaseState uint8

const (
	phaseWaiting phaseState = iota
	phaseRunning
	phaseDone
	phaseError
	phaseCancelled
)

var phaseStateNames = [...]core.JobState{
	phaseWaiting:   core.StateWaiting,
	phaseRunning:   core.StateRunning,
	phaseDone:      core.StateDone,
	phaseError:     core.StateError,
	phaseCancelled: core.StateCancelled,
}

func (s phaseState) jobState() core.JobState { return phaseStateNames[s] }
func (s phaseState) terminal() bool          { return s >= phaseDone }

// phaseOf returns the code of a job state.  A state this container does
// not know, which only a journal can hold, comes back WAITING, to be run
// again.
func phaseOf(s core.JobState) phaseState {
	for code, name := range phaseStateNames {
		if name == s {
			return phaseState(code)
		}
	}
	return phaseWaiting
}

// jobPhase is one published image of the changing half of a job.  It is
// never written once published; a transition builds the next one from it
// (next).  Fields most jobs never set sit behind more.
type jobPhase struct {
	started, finished  time.Time
	queueWait, runTime core.Duration
	outputs            core.Values
	more               *phaseMore
	// view is the Go API's image of this phase, built by the first reader
	// that asks (jobRecord.image).
	view  atomic.Pointer[core.Job]
	state phaseState
}

// phaseMore holds the fields of a phase that few jobs set.  Like the phase
// it is never written once published.
type phaseMore struct {
	err    string
	log    []string
	blocks map[string]core.JobState
	// destruction, when ownDestruction is set, is a replayed destruction
	// time that Finished + ttl does not give.
	destruction    time.Time
	ownDestruction bool
}

// next returns a copy of p, without its view, for a transition to build on.
func (p *jobPhase) next() *jobPhase {
	return &jobPhase{
		started: p.started, finished: p.finished,
		queueWait: p.queueWait, runTime: p.runTime,
		outputs: p.outputs, more: p.more, state: p.state,
	}
}

// moreCopy returns a copy of p's rarely set fields for a transition to
// change, without a replayed destruction time.
func (p *jobPhase) moreCopy() *phaseMore {
	if p.more == nil {
		return &phaseMore{}
	}
	return &phaseMore{err: p.more.err, log: p.more.log, blocks: p.more.blocks}
}

// destruction returns the job's destruction time in phase p: Finished plus
// the record's ttl once terminal, unless replay restored another.
func (rec *jobRecord) destruction(p *jobPhase) time.Time {
	if p.more != nil && p.more.ownDestruction {
		return p.more.destruction
	}
	if rec.ttl > 0 && p.state.terminal() {
		return p.finished.Add(rec.ttl)
	}
	return time.Time{}
}

// build returns the job that the record's request and phase p make.
func (rec *jobRecord) build(p *jobPhase) core.Job {
	j := core.Job{
		ID: rec.id, Service: rec.service, State: p.state.jobState(),
		Inputs: rec.inputs, Outputs: p.outputs,
		Created: rec.created, Submitted: rec.submitted,
		Started: p.started, Finished: p.finished, Destruction: rec.destruction(p),
		QueueWait: p.queueWait, RunTime: p.runTime,
		TraceID: rec.traceID, Owner: rec.owner,
	}
	if m := p.more; m != nil {
		j.Error, j.Log, j.Blocks = m.err, m.log, m.blocks
	}
	return j
}

// image returns the Go API's job of phase p, building it on the first call
// for that phase.  It is shared: callers must not write to it.
func (rec *jobRecord) image(p *jobPhase) *core.Job {
	if j := p.view.Load(); j != nil {
		return j
	}
	j := rec.build(p)
	if p.view.CompareAndSwap(nil, &j) {
		return &j
	}
	return p.view.Load()
}

// current returns the Go API's job of the record's current phase.
func (rec *jobRecord) current() *core.Job { return rec.image(rec.phase.Load()) }

// jobImage is one job as a reader loaded it: its record and the phase it
// was in.
type jobImage struct {
	rec *jobRecord
	p   *jobPhase
}

// images returns the Go API's jobs of imgs.
func images(imgs []jobImage) []*core.Job {
	if imgs == nil {
		return nil
	}
	jobs := make([]*core.Job, len(imgs))
	for i, img := range imgs {
		jobs[i] = img.rec.image(img.p)
	}
	return jobs
}

// appendJSON appends the job of rec in phase p through e.  The job is
// built on the stack, so encoding a phase allocates nothing of its own.
func (rec *jobRecord) appendJSON(b []byte, e *core.JobEncoder, p *jobPhase) ([]byte, error) {
	j := rec.build(p)
	return e.Append(b, &j, rec.idPlain, rec.tracePlain)
}

// noMore stands for the rarely set fields of a phase that sets none.
var noMore phaseMore

// jobBody is a job resource's body: one job with the uri prefix+ID.
type jobBody struct {
	jobImage
	prefix string
}

func (body *jobBody) AppendJSON(b []byte) ([]byte, error) {
	e := core.NewJobEncoder(body.prefix)
	return body.rec.appendJSON(b, &e, body.p)
}

// jobPage is one page of a job listing, encoded as core.JobPage encodes
// the page of the jobs it holds, each with the uri prefix+ID.  A nil jobs
// slice encodes as null.
type jobPage struct {
	jobs                 []jobImage
	limit, offset, total int
	prefix               string
}

func (pg *jobPage) AppendJSON(b []byte) ([]byte, error) {
	n := len(pg.jobs)
	if pg.jobs == nil {
		n = -1
	}
	e := core.NewJobEncoder(pg.prefix)
	return core.AppendJobPage(b, n, pg.limit, pg.offset, pg.total, func(b []byte, i int) ([]byte, error) {
		return pg.jobs[i].rec.appendJSON(b, &e, pg.jobs[i].p)
	})
}

// jobLogRecord is the journal's KindJob record of a job in one phase,
// encoded as the journal.JobRecord of the job they make.
type jobLogRecord jobImage

func (r jobLogRecord) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"job":`...)
	var e core.JobEncoder
	b, err := r.rec.appendJSON(b, &e, r.p)
	if err != nil {
		return nil, err
	}
	sweepID := ""
	if r.rec.sweep != nil {
		sweepID = r.rec.sweep.id
	}
	return journal.AppendJobRecordTail(b, sweepID, core.Duration(r.rec.ttl)), nil
}
