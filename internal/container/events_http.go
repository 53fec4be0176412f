package container

import (
	"encoding/json"
	"net/http"

	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/rest"
)

// SSE endpoints of the push-based async plane (DESIGN.md §5g): the
// job_events, sweep_events and service_events routes of core.Routes.
// events.Serve runs each stream; these handlers check the resource exists,
// so no topic is created for an unknown ID, and supply its snapshot.

// handleJobEvents streams one job's state transitions.
func (c *Container) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	service, jobID := r.PathValue("name"), r.PathValue("id")
	rec, err := c.jobs.record(jobID)
	if err != nil || rec.service != service {
		rest.WriteError(w, core.ErrNotFound("job", jobID))
		return
	}
	topic := events.JobTopic(jobID)
	events.Serve(w, r, events.Stream{
		Bus:   c.events,
		Topic: topic,
		Type:  events.TypeJob,
		Snapshot: func() ([]byte, uint64, bool, error) {
			img, seq, err := c.jobs.eventImage(jobID, topic)
			if err != nil {
				return nil, 0, false, err
			}
			e := core.NewJobEncoder(c.jobsURIPrefix(service))
			data, err := img.rec.appendJSON(nil, &e, img.p)
			return data, seq, img.p.state.terminal(), err
		},
		Idle: c.maxWait,
	})
}

// handleSweepEvents streams one sweep's aggregate progress.
func (c *Container) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	service, sweepID := r.PathValue("name"), r.PathValue("id")
	sweep, err := c.jobs.GetSweep(sweepID)
	if err != nil || sweep.Service != service {
		rest.WriteError(w, core.ErrNotFound("sweep", sweepID))
		return
	}
	events.Serve(w, r, events.Stream{
		Bus:   c.events,
		Topic: events.SweepTopic(sweepID),
		Type:  events.TypeSweep,
		Snapshot: func() ([]byte, uint64, bool, error) {
			s, err := c.jobs.GetSweep(sweepID)
			if err != nil {
				return nil, 0, false, err
			}
			data, err := json.Marshal(c.decorateSweep(s))
			return data, 0, s.State.Terminal(), err
		},
		Idle: c.maxWait,
	})
}

// handleServiceEvents streams the service's activity feed: every job
// transition of the service, sweep submissions, deploy/undeploy notices.
// The feed has no single representation, so it opens with a hello frame.
func (c *Container) handleServiceEvents(w http.ResponseWriter, r *http.Request) {
	service := r.PathValue("name")
	if _, err := c.Describe(service); err != nil {
		rest.WriteError(w, err)
		return
	}
	hello, _ := json.Marshal(map[string]string{"service": service, "change": "watch"})
	events.Serve(w, r, events.Stream{
		Bus:   c.events,
		Topic: events.ServiceTopic(service),
		Type:  events.TypeService,
		Hello: hello,
		Idle:  c.maxWait,
	})
}
