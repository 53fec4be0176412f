package container

import (
	"encoding/json"

	"mathcloud/internal/core"
	"mathcloud/internal/events"
)

// Publish side of the event plane.  Every publisher is gated on Bus.Idle,
// then Bus.Active: until the bus's first subscription a transition costs
// one atomic load and builds no topic name; a resource nobody ever
// subscribed to pays one or two map lookups per transition and never
// encodes.  A subscriber attaching between the check and
// the transition is not a loss — the SSE handlers send the current
// representation right after subscribing, so the state the gate skipped is
// delivered as the opening snapshot.
//
// notifyJob is the publish step of a job's commit (jobRecord): it runs
// under the record's mutex, between the journal append and the store, and
// is handed the phase being committed, so the bus carries one job's phases
// in commit order and a phase a reader loads is already on the bus.  The
// bus takes only its own topic locks.  notifySweep reads sweep state and
// must be called WITHOUT holding a job record's mutex (same contract as
// sweepRecord.childTransition).

// notifyJob publishes the job of rec in phase p on its job topic and on its
// service's activity feed.  A terminal phase ends the job topic.
func (jm *JobManager) notifyJob(rec *jobRecord, p *jobPhase) {
	bus := jm.c.events
	if bus.Idle() {
		return
	}
	jobTopic := events.JobTopic(rec.id)
	svcTopic := events.ServiceTopic(rec.service)
	onJob, onSvc := bus.Active(jobTopic), bus.Active(svcTopic)
	if !onJob && !onSvc {
		return
	}
	e := core.NewJobEncoder(jm.c.jobsURIPrefix(rec.service))
	data, err := rec.appendJSON(nil, &e, p)
	if err != nil {
		return
	}
	if onJob {
		bus.Publish(jobTopic, events.TypeJob, p.state.terminal(), data)
	}
	if onSvc {
		// The feed outlives any one job; terminal jobs don't end it.
		bus.Publish(svcTopic, events.TypeJob, false, data)
	}
}

// notifySweep publishes the sweep's aggregate snapshot on its own sweep
// topic, where a terminal snapshot ends the stream, or with feed set on its
// service feed (at submission), which no sweep ends.  The event
// granularity is the child transition: wide sweeps produce one event per
// child state change, and the bounded subscriber buffers coalesce bursts
// into sync frames that the SSE handler re-expands to a fresh snapshot — a
// watcher sees every count eventually, not every increment.
func (jm *JobManager) notifySweep(sw *sweepRecord, feed bool) {
	bus := jm.c.events
	if bus.Idle() {
		return
	}
	topic, ends := events.SweepTopic(sw.id), true
	if feed {
		topic, ends = events.ServiceTopic(sw.service), false
	}
	if !bus.Active(topic) {
		return
	}
	s := jm.c.decorateSweep(sw.snapshot())
	data, err := json.Marshal(s)
	if err != nil {
		return
	}
	bus.Publish(topic, events.TypeSweep, ends && s.State.Terminal(), data)
}
