package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/gateway"
	"mathcloud/internal/journal"
	"mathcloud/internal/rest"
)

// The traced run builds the benchmark's three services in this process, from
// the same configuration the child servers get, and records spans around
// the calls into each layer.  All spans are recorded here, in the
// benchmark's own files; spans inside the servers are a later change.
//
// Two cycles are traced end to end over real loopback listeners, one
// request at a time:
//
//	cycle     client.call > obs.instrument > container.handler
//	gw_cycle  gw.client.call > gateway.handler > gw.obs.instrument > gw.container.handler
//
// obs.instrument wraps Container.Handler() and container.handler wraps
// Container.APIHandler(), so the self time of obs.instrument is the ingress
// middleware and the self time of gateway.handler is route + proxy.  The
// remaining spans time one public call of a layer in isolation, with the
// inputs the workloads use.

// traceRoots maps each nested span to the cycle it belongs to.
var traceRoots = map[string]string{
	"client.call":          "cycle",
	"obs.instrument":       "cycle",
	"container.handler":    "cycle",
	"gw.client.call":       "gw_cycle",
	"gateway.handler":      "gw_cycle",
	"gw.obs.instrument":    "gw_cycle",
	"gw.container.handler": "gw_cycle",
}

// traceReport is what the traced run found.
type traceReport struct {
	Iterations    int        `json:"iterations"`
	Rows          []layerRow `json:"rows"`
	UntracedP50us float64    `json:"untraced_cycle_p50_us"`
	OverheadShare float64    `json:"overhead_share"`
	CoverageShare float64    `json:"coverage_share"`
}

// metrics renders the report under the per-layer metric names.
func (t *traceReport) metrics() map[string]float64 {
	m := map[string]float64{
		"trace.overhead_share": t.OverheadShare,
		"trace.coverage_share": t.CoverageShare,
	}
	for _, r := range t.Rows {
		switch _, nested := traceRoots[r.Name]; {
		case r.Name == "cycle" || r.Name == "gw_cycle":
			m["trace."+r.Name+"_us"] = r.P50us
		case nested:
			m["trace."+r.Name+"_self_us"] = r.SelfP50us
		default:
			m["trace."+r.Name+"_us"] = r.P50us
		}
	}
	return m
}

// headerTransport stamps the current trace header on outgoing requests.
// The traced run is one goroutine, so a plain field is enough.
type headerTransport struct {
	next http.RoundTripper
	hv   string
}

func (t *headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
	r.Header.Set(traceHeader, t.hv)
	return t.next.RoundTrip(r)
}

// tracer holds the in-process system of the traced run.
type tracer struct {
	rec      *recorder
	dir      string
	services []container.ServiceConfig
	direct   *container.Container
	closers  []func()
	tr       *headerTransport
	api      *client.Client
	inc      *client.Service // direct
	gwInc    *client.Service // through the in-process gateway
	seq      int
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// newTracer builds the direct container and the two-replica federation.
func newTracer(dir string) (_ *tracer, err error) {
	var cfg struct {
		Services []container.ServiceConfig `json:"services"`
	}
	if err := json.Unmarshal([]byte(servicesJSON), &cfg); err != nil {
		return nil, fmt.Errorf("trace: services config: %w", err)
	}
	t := &tracer{rec: newRecorder(), dir: dir, services: cfg.Services,
		tr: &headerTransport{next: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}}
	t.api = &client.Client{HTTP: &http.Client{Transport: t.tr}, Retry: rest.NoRetry}
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	directURL, directLn, err := listen()
	if err != nil {
		return nil, err
	}
	if t.direct, err = t.newContainer("direct", "", directURL); err != nil {
		directLn.Close()
		return nil, err
	}
	t.serve(directLn, t.containerHandler(t.direct, ""))
	t.inc = t.api.Service(directURL + "/services/inc")

	gwURL, gwLn, err := listen()
	if err != nil {
		return nil, err
	}
	var members []gateway.Replica
	for _, name := range []string{"r01", "r02"} {
		url, ln, err := listen()
		if err != nil {
			gwLn.Close()
			return nil, err
		}
		c, err := t.newContainer(name, name, gwURL)
		if err != nil {
			ln.Close()
			gwLn.Close()
			return nil, err
		}
		t.serve(ln, t.containerHandler(c, "gw."))
		members = append(members, gateway.Replica{Name: name, BaseURL: url})
	}
	gw, err := gateway.New(gateway.Options{Replicas: members, Logger: quietLogger()})
	if err != nil {
		gwLn.Close()
		return nil, err
	}
	t.closers = append(t.closers, gw.Close)
	t.serve(gwLn, t.rec.middleware("gateway.handler", gw.Handler()))
	t.gwInc = t.api.Service(gwURL + "/services/inc")
	return t, nil
}

func listen() (string, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return "http://" + ln.Addr().String(), ln, nil
}

func (t *tracer) newContainer(name, replica, baseURL string) (*container.Container, error) {
	c, err := container.New(container.Options{
		DataDir:   filepath.Join(t.dir, name),
		ReplicaID: replica,
		Logger:    quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, c.Close)
	if err := c.DeployAll(t.services); err != nil {
		return nil, err
	}
	c.SetBaseURL(baseURL)
	return c, nil
}

// containerHandler is Container.Handler() with a span around it and a
// second span around the API handler inside the ingress middleware.
func (t *tracer) containerHandler(c *container.Container, prefix string) http.Handler {
	api := t.rec.middleware(prefix+"container.handler", c.APIHandler())
	return t.rec.middleware(prefix+"obs.instrument", container.Instrument(api))
}

func (t *tracer) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on close
		close(done)
	}()
	t.closers = append(t.closers, func() {
		_ = srv.Close()
		<-done
	})
}

// close stops the listeners first, then the gateway and the containers.
func (t *tracer) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	t.tr.next.(*http.Transport).CloseIdleConnections()
}

// tracedCycle runs one Table 1 cycle as a root span with one client span
// per HTTP request.
func (t *tracer) tracedCycle(ctx context.Context, root, call string, svc *client.Service) error {
	t.seq++
	req := "b" + strconv.Itoa(t.seq)
	x := float64(t.seq)
	rootID := t.rec.begin(req, root, -1)
	defer t.rec.end(rootID)

	id := t.rec.begin(req, call, rootID)
	t.tr.hv = headerValue(req, id)
	job, err := svc.Submit(ctx, core.Values{"x": x}, submitWait)
	t.rec.end(id)
	if err != nil {
		return err
	}
	if y, ok := job.Outputs["y"].(float64); job.State != core.StateDone || !ok || y != x+1 {
		return fmt.Errorf("trace: job %s answered %s y = %v, want DONE y = %v", job.ID, job.State, job.Outputs["y"], x+1)
	}
	id = t.rec.begin(req, call, rootID)
	t.tr.hv = headerValue(req, id)
	_, err = svc.Cancel(ctx, job.URI)
	t.rec.end(id)
	return err
}

// each runs body warm+n times and records spans for the last n.  body
// wraps what it measures in span.
func (t *tracer) each(warm, n int, body func(i int, span func(name string, f func())) error) error {
	defer t.rec.enable(false)
	for i := 0; i < warm+n; i++ {
		t.rec.enable(i >= warm)
		t.seq++
		req := "b" + strconv.Itoa(t.seq)
		span := func(name string, f func()) {
			id := t.rec.begin(req, name, -1)
			f()
			t.rec.end(id)
		}
		if err := body(i, span); err != nil {
			return err
		}
	}
	return nil
}

// run executes the traced run: n iterations of the light spans after n/10
// of warm-up, a tenth of that for the spans that fork, fsync or move 1 MiB.
func (t *tracer) run(ctx context.Context, n int) (*traceReport, error) {
	warm, heavy := n/10, n/10
	if heavy < 20 {
		heavy = 20
	}

	// Traced and untraced cycles alternate (same cycle, same handlers,
	// recorder on or off), so that a change in the host's speed during the
	// run does not pass for tracing overhead.
	var untraced []float64
	for i := 0; i < 2*(warm+n); i++ {
		traced := i%2 == 1
		t.rec.enable(traced && i >= 2*warm)
		start := time.Now()
		if err := t.tracedCycle(ctx, "cycle", "client.call", t.inc); err != nil {
			return nil, err
		}
		if !traced && i >= 2*warm {
			untraced = append(untraced, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	t.rec.enable(false)
	for i := 0; i < warm+n; i++ {
		t.rec.enable(i >= warm)
		if err := t.tracedCycle(ctx, "gw_cycle", "gw.client.call", t.gwInc); err != nil {
			return nil, err
		}
	}
	t.rec.enable(false)

	if err := t.isolatedControl(ctx, warm, n); err != nil {
		return nil, err
	}
	if err := t.isolatedJournal(warm, n, heavy); err != nil {
		return nil, err
	}
	if err := t.isolatedFiles(ctx, heavy); err != nil {
		return nil, err
	}

	rows := layerTable(t.rec.spans, traceRoots)
	rep := &traceReport{Iterations: n, Rows: rows, UntracedP50us: median(untraced)}
	// The self times of a span tree add up to the root's duration, so the
	// cycle's total is its own self time plus everything nested in it.
	var nestedSelf, rootSelf float64
	for _, r := range rows {
		switch {
		case r.Name == "cycle":
			rep.OverheadShare = r.P50us/rep.UntracedP50us - 1
			rootSelf = r.MeanSelf * float64(r.Count)
		case traceRoots[r.Name] == "cycle":
			nestedSelf += r.MeanSelf * float64(r.Count)
		}
	}
	if nestedSelf > 0 {
		rep.CoverageShare = nestedSelf / (nestedSelf + rootSelf)
	}
	return rep, nil
}

// isolatedControl times the control-plane calls of the small cycle.
func (t *tracer) isolatedControl(ctx context.Context, warm, n int) error {
	desc := t.services[0].Description // inc
	body := []byte(`{"x": 12345678}`)
	sample := &core.Job{ID: core.NewID(), Service: "inc", State: core.StateDone,
		Inputs: core.Values{"x": 12345678.0}, Outputs: core.Values{"y": 12345679.0},
		Created: time.Now(), Submitted: time.Now(), Started: time.Now(), Finished: time.Now(),
		TraceID: "0123456789abcdef", URI: "http://127.0.0.1:8080/services/inc/jobs/0123456789abcdef0123456789abcdef"}
	script, err := adapter.NewScriptAdapter(t.services[0].Adapter.Config)
	if err != nil {
		return err
	}
	jobs := t.direct.Jobs()
	bus := t.direct.Events()
	eventData, err := json.Marshal(sample)
	if err != nil {
		return err
	}
	return t.each(warm, n, func(i int, span func(string, func())) error {
		var err error
		x := float64(i)

		r := httptest.NewRequest(http.MethodPost, "/services/inc", bytes.NewReader(body))
		var in core.Values
		span("rest.read_json", func() { err = rest.ReadJSON(r, &in) })
		if err != nil {
			return err
		}
		w := httptest.NewRecorder()
		span("rest.write_json", func() { rest.WriteJSON(w, http.StatusCreated, sample) })
		span("core.validate", func() { err = desc.ValidateInputs(desc.ApplyDefaults(in)) })
		if err != nil {
			return err
		}
		span("core.canonical_hash", func() { _, err = core.CanonicalHash("incdet", desc.Version, in, nil) })
		if err != nil {
			return err
		}

		var job *core.Job
		span("container.submit", func() { job, err = jobs.SubmitCtx(ctx, "inc", core.Values{"x": x}, "") })
		if err != nil {
			return err
		}
		span("container.wait", func() { job, err = jobs.Wait(ctx, job.ID, submitWait) })
		if err != nil {
			return err
		}
		if y, ok := job.Outputs["y"].(float64); !ok || y != x+1 {
			return fmt.Errorf("trace: container.wait: y = %v, want %v", job.Outputs["y"], x+1)
		}
		span("container.delete", func() { _, err = jobs.Delete(job.ID) })
		if err != nil {
			return err
		}

		var res *adapter.Result
		span("adapter.script_invoke", func() {
			res, err = script.Invoke(ctx, &adapter.Request{Service: "inc", Inputs: core.Values{"x": x}})
		})
		if err != nil {
			return err
		}
		if y, ok := res.Outputs["y"].(float64); !ok || y != x+1 {
			return fmt.Errorf("trace: adapter.script_invoke: y = %v, want %v", res.Outputs["y"], x+1)
		}
		// Nothing subscribes in any workload, so this is the unwatched path.
		span("events.publish", func() { bus.Publish(events.JobTopic(sample.ID), events.TypeJob, false, eventData) })
		return nil
	})
}

// isolatedJournal times one job-image append in each durability mode.
func (t *tracer) isolatedJournal(warm, n, heavy int) error {
	rec := journal.JobRecord{Job: &core.Job{ID: core.NewID(), Service: "inc", State: core.StateWaiting,
		Inputs: core.Values{"x": 12345678.0}, Created: time.Now(), Submitted: time.Now(), TraceID: "0123456789abcdef"}}
	for _, m := range []struct {
		name  string
		mode  journal.SyncMode
		iters int
	}{
		{"journal.append_off", journal.SyncOff, n},
		{"journal.append_batch", journal.SyncBatch, n},
		{"journal.append_always", journal.SyncAlways, heavy}, // one fsync each
	} {
		jl, err := journal.Open(filepath.Join(t.dir, m.name), journal.Options{Mode: m.mode})
		if err != nil {
			return err
		}
		err = t.each(warm*m.iters/n, m.iters, func(i int, span func(string, func())) error {
			var err error
			span(m.name, func() { err = jl.Append(journal.KindJob, rec) })
			return err
		})
		if cerr := jl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// isolatedFiles times the file plane and the command adapter on 1 MiB.
func (t *tracer) isolatedFiles(ctx context.Context, n int) error {
	files := t.direct.Files()
	cp, err := adapter.NewCommandAdapter(t.services[2].Adapter.Config) // copy
	if err != nil {
		return err
	}
	work := filepath.Join(t.dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	blob := blobBase(1, 0)
	staged := filepath.Join(work, "in.bin")
	return t.each(n/10, n, func(i int, span func(string, func())) error {
		var err error
		stampBlob(blob, 1, 0, i)
		var id, outID string
		span("container.files_put", func() { id, err = files.Put(bytes.NewReader(blob), "") })
		if err != nil {
			return err
		}
		span("container.files_stage", func() { err = files.StageTo(id, staged) })
		if err != nil {
			return err
		}
		var res *adapter.Result
		span("adapter.command_invoke", func() {
			res, err = cp.Invoke(ctx, &adapter.Request{Service: "copy", WorkDir: work,
				Inputs: core.Values{"data": core.FileRef(id)}, Files: map[string]string{"data": staged}})
		})
		if err != nil {
			return err
		}
		span("container.files_put_file", func() { outID, err = files.PutFile(res.Files["copy"], "trace") })
		if err != nil {
			return err
		}
		var copied int64
		span("container.files_read", func() {
			var f io.ReadCloser
			if f, _, err = files.Open(outID); err != nil {
				return
			}
			copied, err = rest.Copy(io.Discard, f)
			f.Close()
		})
		if err != nil {
			return err
		}
		if copied != blobSize {
			return fmt.Errorf("trace: container.files_read: %d bytes, want %d", copied, blobSize)
		}
		for _, path := range []string{staged, res.Files["copy"]} {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
		if err := files.Delete(outID); err != nil {
			return err
		}
		return files.Delete(id)
	})
}
