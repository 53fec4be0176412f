package container

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// Handler returns the HTTP handler of the container: the routes core.Routes
// gives TierContainer, behind the ingress instrumentation.  The
// infrastructure routes (/metrics, /status, /load) answer before the
// security guard, so operators and gateways can scrape a secured container
// without service credentials; they expose aggregates and load reports,
// never job data.
func (c *Container) Handler() http.Handler {
	return obs.Instrument(c.APIHandler())
}

// Instrument is obs.Instrument, the ingress middleware Handler puts in
// front of APIHandler.
func Instrument(next http.Handler) http.Handler { return obs.Instrument(next) }

// DigestHeader carries the sha256 hex digest of a file resource's content
// on GET /files/{id} responses.  A replica pulling a foreign blob across
// the federation verifies the transfer against it before registering the
// bytes in its local content-addressed store.
const DigestHeader = "X-MC-Digest"

// APIHandler returns the unified REST API handler without the ingress
// instrumentation.  Use Handler unless the handler is being embedded under
// an outer Instrument wrapper.
func (c *Container) APIHandler() http.Handler { return c.Mux(core.TierContainer, nil) }

// Mux returns the container's API for tier without the ingress
// instrumentation: its own handlers plus extra, keyed by route label, for a
// front-end such as the WMS that serves more routes of the table.  Every
// route but the infrastructure ones passes the security guard first.
func (c *Container) Mux(tier core.Tier, extra map[string]http.HandlerFunc) http.Handler {
	handlers := map[string]http.HandlerFunc{
		"index":          c.handleIndex,
		"service":        c.handleService,
		"job_list":       c.handleJobList,
		"job":            c.handleJob,
		"job_events":     c.handleJobEvents,
		"sweep_list":     c.handleSweepList,
		"sweep":          c.handleSweep,
		"sweep_jobs":     c.handleSweepJobs,
		"sweep_events":   c.handleSweepEvents,
		"service_events": c.handleServiceEvents,
		"file":           c.handleFiles,
		"load":           c.handleLoad,
	}
	for label, h := range extra {
		handlers[label] = h
	}
	var guard func(http.HandlerFunc) http.HandlerFunc
	if c.guard != nil {
		guard = c.guarded
	}
	mux := rest.NewMux(tier, handlers, guard)
	if c.replicaID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(core.ReplicaHeader, c.replicaID)
		mux.ServeHTTP(w, r)
	})
}

// principalKey carries the guard's authenticated principal to the handlers.
type principalKey struct{}

// guarded authenticates every request to next and authorizes it for the
// service its path names; next reads the principal with principalOf.
func (c *Container) guarded(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := c.guard.Authenticate(r)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="mathcloud"`)
			rest.WriteJSON(w, http.StatusUnauthorized, rest.ErrorBody{
				Error:  err.Error(),
				Status: http.StatusUnauthorized,
			})
			return
		}
		if name := r.PathValue("name"); name != "" {
			if err := c.guard.Authorize(p, name); err != nil {
				rest.WriteError(w, err)
				return
			}
		}
		next(w, r.WithContext(context.WithValue(r.Context(), principalKey{}, p)))
	}
}

// principalOf is the principal the guard authenticated for r; the zero
// Principal on an open container.
func principalOf(r *http.Request) core.Principal {
	p, _ := r.Context().Value(principalKey{}).(core.Principal)
	return p
}

func (c *Container) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	services := c.Services()
	if rest.WantsHTML(r) {
		c.renderIndex(w, services)
		return
	}
	index := map[string]any{
		"container": "everest",
		"services":  services,
	}
	if c.replicaID != "" {
		index["replica"] = c.replicaID
	}
	rest.WriteJSON(w, http.StatusOK, index)
}

// listParams parses the shared list-filtering query parameters: ?state=
// (case-insensitive job state), ?limit= and ?offset=.  An unknown state or a
// malformed number is a client error.
func listParams(r *http.Request) (state core.JobState, limit, offset int, err error) {
	q := r.URL.Query()
	if s := q.Get("state"); s != "" {
		state = core.JobState(strings.ToUpper(s))
		switch state {
		case core.StateWaiting, core.StateRunning, core.StateDone,
			core.StateError, core.StateCancelled:
		default:
			return "", 0, 0, core.ErrBadRequest("unknown job state %q", s)
		}
	}
	if s := q.Get("limit"); s != "" {
		if limit, err = strconv.Atoi(s); err != nil || limit < 0 {
			return "", 0, 0, core.ErrBadRequest("invalid limit %q", s)
		}
	}
	if s := q.Get("offset"); s != "" {
		if offset, err = strconv.Atoi(s); err != nil || offset < 0 {
			return "", 0, 0, core.ErrBadRequest("invalid offset %q", s)
		}
	}
	return state, limit, offset, nil
}

// handleService implements the service resource: GET returns the service
// description, POST submits a new request and creates a job.
func (c *Container) handleService(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		if rest.WantsHTML(r) {
			desc, err := c.Describe(name)
			if err != nil {
				rest.WriteError(w, err)
				return
			}
			c.renderService(w, desc)
			return
		}
		// Serve the precomputed immutable representation: no per-request
		// encoding, and If-None-Match revalidations collapse to a 304.
		body, etag, err := c.DescribeCached(name)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		if body == nil {
			desc, err := c.Describe(name)
			if err != nil {
				rest.WriteError(w, err)
				return
			}
			rest.WriteJSON(w, http.StatusOK, desc)
			return
		}
		rest.ServeJSONBytes(w, r, etag, body)
	case http.MethodPost:
		// Parse ?wait= before submitting: a malformed window is the
		// client's error and must 400 without creating a job.
		q := r.URL.Query()
		wait, hasWait, err := rest.ParseWait(q)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		// ?destruction= sets the job's retention TTL (UWS destruction time):
		// how long the terminal job is kept before the reaper purges it.
		var ttl time.Duration
		if raw := q.Get("destruction"); raw != "" {
			ttl, err = time.ParseDuration(raw)
			if err != nil || ttl <= 0 {
				rest.WriteError(w, core.ErrBadRequest("invalid destruction duration %q", raw))
				return
			}
		}
		var inputs core.Values
		if err := rest.ReadJSON(r, &inputs); err != nil {
			rest.WriteError(w, err)
			return
		}
		rec, err := c.jobs.submit(r.Context(), name, inputs, SubmitOptions{Owner: principalOf(r).Effective(), TTL: ttl})
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		// Synchronous mode: if the client asked to wait and the job
		// finishes in time, the completed representation (state DONE)
		// is returned immediately, as Section 2 of the paper allows.
		c.advertiseWaitMax(w.Header())
		if hasWait {
			_ = awaitDone(r.Context(), rec.doneChan(), c.clampWait(wait))
		}
		prefix := c.jobsURIPrefix(name)
		w.Header().Set("Location", prefix+rec.id)
		rest.WriteJSON(w, http.StatusCreated, &jobBody{jobImage{rec, rec.phase.Load()}, prefix})
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

func (c *Container) handleJobList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	service := r.PathValue("name")
	if _, err := c.Describe(service); err != nil {
		rest.WriteError(w, err)
		return
	}
	state, limit, offset, err := listParams(r)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	jobs, total := c.jobs.listPage(service, state, limit, offset)
	rest.WriteJSON(w, http.StatusOK, &jobPage{
		jobs: jobs, limit: limit, offset: offset, total: total, prefix: c.jobsURIPrefix(service),
	})
}

// handleJob implements the job resource: GET returns status and results,
// DELETE cancels the job or deletes its data.
func (c *Container) handleJob(w http.ResponseWriter, r *http.Request) {
	service, jobID := r.PathValue("name"), r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		wait, hasWait, err := rest.ParseWait(r.URL.Query())
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		rec, err := c.jobs.record(jobID)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		if rec.service != service {
			rest.WriteError(w, core.ErrNotFound("job", jobID))
			return
		}
		c.advertiseWaitMax(w.Header())
		p := rec.phase.Load()
		if hasWait && !p.state.terminal() {
			if awaitDone(r.Context(), rec.doneChan(), c.clampWait(wait)) == nil {
				p = rec.phase.Load()
			}
		}
		if rest.WantsHTML(r) {
			c.renderJob(w, rec.build(p))
			return
		}
		rest.WriteJSON(w, http.StatusOK, &jobBody{jobImage{rec, p}, c.jobsURIPrefix(service)})
	case http.MethodDelete:
		rec, err := c.jobs.record(jobID)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		if rec.service != service {
			rest.WriteError(w, core.ErrNotFound("job", jobID))
			return
		}
		p, err := c.jobs.delete(rec)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		rest.WriteJSON(w, http.StatusOK, &jobBody{jobImage{rec, p}, c.jobsURIPrefix(service)})
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodDelete)
	}
}

// handleSweepList implements the sweep collection: POST expands one sweep
// specification into a whole campaign of child jobs in a single round trip,
// GET lists the service's sweeps.
func (c *Container) handleSweepList(w http.ResponseWriter, r *http.Request) {
	service := r.PathValue("name")
	switch r.Method {
	case http.MethodPost:
		wait, hasWait, err := rest.ParseWait(r.URL.Query())
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		var spec core.SweepSpec
		if err := rest.ReadJSON(r, &spec); err != nil {
			rest.WriteError(w, err)
			return
		}
		sweep, err := c.jobs.SubmitSweep(r.Context(), service, &spec, principalOf(r).Effective())
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		// Synchronous mode, as for single jobs: a short campaign that
		// finishes within the wait window returns terminal in one call.
		c.advertiseWaitMax(w.Header())
		if hasWait {
			if s, err := c.jobs.WaitSweep(r.Context(), sweep.ID, c.clampWait(wait)); err == nil {
				sweep = s
			}
		}
		w.Header().Set("Location", c.SweepURI(service, sweep.ID))
		rest.WriteJSON(w, http.StatusCreated, c.decorateSweep(sweep))
	case http.MethodGet:
		if _, err := c.Describe(service); err != nil {
			rest.WriteError(w, err)
			return
		}
		sweeps := c.jobs.ListSweeps(service)
		for _, s := range sweeps {
			c.decorateSweep(s)
		}
		rest.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": sweeps})
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// handleSweep implements the sweep resource: GET returns the aggregate
// status (long-polling via ?wait=), DELETE cancels a live sweep in one call
// or destroys a finished one.
func (c *Container) handleSweep(w http.ResponseWriter, r *http.Request) {
	service, sweepID := r.PathValue("name"), r.PathValue("id")
	sweep, err := c.jobs.GetSweep(sweepID)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	if sweep.Service != service {
		rest.WriteError(w, core.ErrNotFound("sweep", sweepID))
		return
	}
	switch r.Method {
	case http.MethodGet:
		wait, hasWait, err := rest.ParseWait(r.URL.Query())
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		c.advertiseWaitMax(w.Header())
		if hasWait && !sweep.State.Terminal() {
			if s, err := c.jobs.WaitSweep(r.Context(), sweepID, c.clampWait(wait)); err == nil {
				sweep = s
			}
		}
		if rest.WantsHTML(r) {
			c.renderSweep(w, c.decorateSweep(sweep))
			return
		}
		rest.WriteJSON(w, http.StatusOK, c.decorateSweep(sweep))
	case http.MethodDelete:
		sweep, err := c.jobs.DeleteSweep(sweepID)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		rest.WriteJSON(w, http.StatusOK, c.decorateSweep(sweep))
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodDelete)
	}
}

// handleSweepJobs lists one page of a sweep's children in point order,
// optionally filtered by state.
func (c *Container) handleSweepJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	service, sweepID := r.PathValue("name"), r.PathValue("id")
	sweep, err := c.jobs.GetSweep(sweepID)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	if sweep.Service != service {
		rest.WriteError(w, core.ErrNotFound("sweep", sweepID))
		return
	}
	state, limit, offset, err := listParams(r)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	jobs, total, err := c.jobs.sweepChildren(sweepID, state, limit, offset)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	// Every child belongs to the sweep's service.
	rest.WriteJSON(w, http.StatusOK, &jobPage{
		jobs: jobs, limit: limit, offset: offset, total: total, prefix: c.jobsURIPrefix(service),
	})
}

// handleFiles implements the file resource: GET returns the file data,
// fully or partially (HTTP range requests are honoured, matching the
// paper's "retrieved fully or partially via the GET method").
func (c *Container) handleFiles(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch {
	case id == "" && r.Method == http.MethodPost:
		fileID, err := c.files.Put(http.MaxBytesReader(w, r.Body, maxFileBytes), "")
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		uri := c.fileURI(fileID)
		w.Header().Set("Location", uri)
		rest.WriteJSON(w, http.StatusCreated, map[string]string{
			"id":  fileID,
			"uri": uri,
			"ref": core.FileRef(uri),
		})
	case id == "":
		rest.MethodNotAllowed(w, http.MethodPost)
	case r.Method == http.MethodGet:
		f, _, err := c.files.Open(id)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		// Advertise the content digest so a peer replica pulling this blob
		// across the federation can verify the transfer end to end.
		if digest, err := c.files.Digest(id); err == nil {
			w.Header().Set(DigestHeader, digest)
		}
		http.ServeContent(w, r, id, time.Time{}, f)
	case r.Method == http.MethodDelete:
		if err := c.files.Delete(id); err != nil {
			rest.WriteError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodDelete)
	}
}

// handleLoad answers GET /load: the replica's point-in-time load report
// (queue occupancy, executing jobs, memo footprint), consumed by the
// gateway's power-of-two-choices placement.
func (c *Container) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	report := c.jobs.LoadReport()
	report.Replica = c.replicaID
	rest.WriteJSON(w, http.StatusOK, report)
}
