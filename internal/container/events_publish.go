package container

import (
	"encoding/json"

	"mathcloud/internal/events"
)

// Publish side of the event plane.  Every publisher is gated on Bus.Idle,
// then Bus.Active: until the bus's first subscription a transition costs
// one atomic load and builds no topic name; a resource nobody ever
// subscribed to pays one or two map lookups per transition and never
// snapshots or marshals.  A subscriber attaching between the check and
// the transition is not a loss — the SSE handlers send the current
// representation right after subscribing, so the state the gate skipped is
// delivered as the opening snapshot.
//
// All notify functions must be called WITHOUT holding the record's mutex
// (same contract as sweepRecord.childTransition): the bus takes its own
// topic locks and the snapshot re-acquires record state.

// notifyJob publishes the job's current snapshot on its job topic and on
// its service's activity feed.  A terminal snapshot ends the job topic.
func (jm *JobManager) notifyJob(rec *jobRecord) {
	bus := jm.c.events
	if bus.Idle() {
		return
	}
	// ID and Service are immutable after the record is published, so they
	// are readable without rec.mu.
	jobTopic := events.JobTopic(rec.job.ID)
	svcTopic := events.ServiceTopic(rec.job.Service)
	onJob, onSvc := bus.Active(jobTopic), bus.Active(svcTopic)
	if !onJob && !onSvc {
		return
	}
	job := jm.c.decorate(rec.snapshot())
	data, err := job.AppendJSON(nil)
	if err != nil {
		return
	}
	if onJob {
		bus.Publish(jobTopic, events.TypeJob, job.State.Terminal(), data)
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
