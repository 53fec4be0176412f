package container

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/obs"
)

// plainJob is core.Job without its methods: encoding/json's reflection
// encoding of it is what every job body was before the hand-written
// encoder, and what it must still be.
type plainJob core.Job

// bodyEnv is one container behind a real listener with a single worker and
// two services: "gate" blocks until released, "free" answers at once.
// Both return outputs with characters encoding/json escapes.
type bodyEnv struct {
	t    *testing.T
	c    *Container
	base string
	gate chan struct{}
	once sync.Once
	req  chan *adapter.Request
}

func newBodyEnv(t *testing.T) *bodyEnv {
	t.Helper()
	c, err := New(Options{Workers: 1, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	e := &bodyEnv{t: t, c: c, gate: make(chan struct{}), req: make(chan *adapter.Request, 1)}
	t.Cleanup(e.release)
	fn := "jobbody." + t.Name()
	adapter.RegisterRequestFunc(fn, func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		if req.Service == "gate" {
			select {
			case <-e.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		select {
		case e.req <- req:
		default:
		}
		x, _ := req.Inputs["x"].(float64)
		return &adapter.Result{Outputs: core.Values{
			"y":    x + 1,
			"note": "<a&b>\u2028\u2029",
			"more": []any{1e21, 1e-7, map[string]any{"z": nil, "a": true}},
		}}, nil
	})
	for _, name := range []string{"gate", "free"} {
		cfg, _ := json.Marshal(adapter.NativeConfig{Function: fn})
		if err := c.Deploy(ServiceConfig{
			Description: core.ServiceDescription{
				Name:    name,
				Inputs:  []core.Param{{Name: "x", Optional: true}},
				Outputs: []core.Param{{Name: "y"}, {Name: "note"}, {Name: "more"}},
			},
			Adapter: AdapterSpec{Kind: "native", Config: cfg},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)
	e.base = srv.URL
	return e
}

func (e *bodyEnv) release() { e.once.Do(func() { close(e.gate) }) }

// do sends one request and returns the status and the raw body.
func (e *bodyEnv) do(method, path, body string) (int, []byte) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.base+path, strings.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, data
}

// withURI returns a copy of the job image j carrying its URI.
func (e *bodyEnv) withURI(j *core.Job) *plainJob {
	decorated := *j
	decorated.URI = e.c.JobURI(j.Service, j.ID)
	return (*plainJob)(&decorated)
}

// plain is the reflection encoding of job id's current image with its URI.
func (e *bodyEnv) plain(id string) []byte {
	e.t.Helper()
	j, err := e.c.jobs.Get(id)
	if err != nil {
		e.t.Fatal(err)
	}
	data, err := json.Marshal(e.withURI(j))
	if err != nil {
		e.t.Fatal(err)
	}
	return data
}

// plainPage is the reflection encoding of the map each job page was.
func (e *bodyEnv) plainPage(jobs []*core.Job, limit, offset, total int) []byte {
	e.t.Helper()
	var plain []*plainJob
	for _, j := range jobs {
		plain = append(plain, e.withURI(j))
	}
	data, err := json.Marshal(map[string]any{"jobs": plain, "limit": limit, "offset": offset, "total": total})
	if err != nil {
		e.t.Fatal(err)
	}
	return data
}

// submit posts one job and returns its ID and the raw body.
func (e *bodyEnv) submit(service, query string, x float64) (string, []byte) {
	e.t.Helper()
	status, body := e.do(http.MethodPost, "/services/"+service+query, `{"x":`+jsonNumber(x)+`}`)
	if status != http.StatusCreated {
		e.t.Fatalf("POST %s%s = %d: %s", service, query, status, body)
	}
	var j core.Job
	if err := json.Unmarshal(body, &j); err != nil {
		e.t.Fatal(err)
	}
	return j.ID, body
}

func jsonNumber(x float64) string {
	data, _ := json.Marshal(x)
	return string(data)
}

func sameBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// TestJobBodiesMatchEncodingJSON drives every path that returns a job and
// compares each body, byte for byte, with encoding/json's encoding of the
// same snapshot: submit, submit with ?wait=, GET and DELETE of a job, the
// job list, a sweep's child page and an SSE job event.
func TestJobBodiesMatchEncodingJSON(t *testing.T) {
	e := newBodyEnv(t)
	jm := e.c.jobs

	// The single worker takes the first gated job, so the second stays
	// WAITING and its snapshot cannot move while it is compared.
	first, _ := e.submit("gate", "", 1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, _ := jm.Get(first); j.State == core.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
	}
	waiting, body := e.submit("gate", "", 2)
	sameBody(t, "submit 201", body, append(e.plain(waiting), '\n'))

	stream := openEvents(t, e.base+"/services/gate/jobs/"+waiting+"/events")
	defer stream.Body.Close()
	sc := events.NewScanner(stream.Body)
	ev, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	sameBody(t, "SSE snapshot", ev.Data, e.plain(waiting))
	e.release()
	for !ev.End {
		if ev, err = sc.Next(); err != nil {
			t.Fatalf("stream ended before the terminal event: %v", err)
		}
	}
	// The event is published before the image is stored (commit), so the
	// image is compared once Wait has seen the landing through.
	if _, err := jm.Wait(context.Background(), waiting, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sameBody(t, "SSE terminal job event", ev.Data, e.plain(waiting))

	done, body := e.submit("free", "?wait=10s", 3)
	if j, _ := jm.Get(done); j.State != core.StateDone {
		t.Fatalf("?wait= submit answered %s", j.State)
	}
	sameBody(t, "submit ?wait=", body, append(e.plain(done), '\n'))

	if _, err := jm.Wait(context.Background(), first, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	status, body := e.do(http.MethodGet, "/services/gate/jobs/"+first, "")
	if status != http.StatusOK {
		t.Fatalf("GET job = %d", status)
	}
	sameBody(t, "GET job", body, append(e.plain(first), '\n'))

	for _, q := range []string{"", "?limit=1&offset=1", "?state=DONE", "?offset=9"} {
		status, body := e.do(http.MethodGet, "/services/gate/jobs"+q, "")
		if status != http.StatusOK {
			t.Fatalf("GET job list%s = %d", q, status)
		}
		r := httptest.NewRequest(http.MethodGet, "/"+q, nil)
		state, limit, offset, _ := listParams(r)
		jobs, total := jm.ListPage("gate", state, limit, offset)
		sameBody(t, "job list"+q, body, append(e.plainPage(jobs, limit, offset, total), '\n'))
	}

	status, body = e.do(http.MethodPost, "/services/free/sweeps?wait=10s",
		`{"axes":{"x":[0.5,-0,1e-7,1e21]}}`)
	if status != http.StatusCreated {
		t.Fatalf("POST sweep = %d: %s", status, body)
	}
	var sw core.Sweep
	if err := json.Unmarshal(body, &sw); err != nil || sw.State != core.StateDone {
		t.Fatalf("sweep %s, %v", body, err)
	}
	for _, q := range []string{"", "?limit=2&offset=1"} {
		status, body := e.do(http.MethodGet, "/services/free/sweeps/"+sw.ID+"/jobs"+q, "")
		if status != http.StatusOK {
			t.Fatalf("GET sweep jobs%s = %d", q, status)
		}
		r := httptest.NewRequest(http.MethodGet, "/"+q, nil)
		state, limit, offset, _ := listParams(r)
		jobs, total, err := jm.SweepChildren(sw.ID, state, limit, offset)
		if err != nil {
			t.Fatal(err)
		}
		sameBody(t, "sweep child page"+q, body, append(e.plainPage(jobs, limit, offset, total), '\n'))
	}

	want := append(e.plain(first), '\n')
	status, body = e.do(http.MethodDelete, "/services/gate/jobs/"+first, "")
	if status != http.StatusOK {
		t.Fatalf("DELETE job = %d", status)
	}
	sameBody(t, "DELETE job", body, want)
}

// openEvents GETs an SSE endpoint; the caller closes the body.
func openEvents(t *testing.T, url string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return resp
}

// TestLandedJobIgnoresLateCallbacks: an adapter that reports progress or a
// block state after it returned must not change the DONE job, which no
// longer matches its journaled end otherwise.
func TestLandedJobIgnoresLateCallbacks(t *testing.T) {
	e := newBodyEnv(t)
	id, body := e.submit("free", "?wait=10s", 1)
	req := <-e.req
	req.Progress("late progress")
	req.SetBlockState("late-block", core.StateRunning)
	status, after := e.do(http.MethodGet, "/services/free/jobs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("GET job = %d", status)
	}
	sameBody(t, "DONE job after late callbacks", after, body)
	j, err := e.c.jobs.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != core.StateDone || len(j.Log) != 0 || len(j.Blocks) != 0 {
		t.Fatalf("landed job changed: state %s, log %q, blocks %v", j.State, j.Log, j.Blocks)
	}
}

// logRecorder keeps every record at every level.
type logRecorder struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (l *logRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (l *logRecorder) Handle(_ context.Context, r slog.Record) error {
	l.mu.Lock()
	l.recs = append(l.recs, r.Clone())
	l.mu.Unlock()
	return nil
}
func (l *logRecorder) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *logRecorder) WithGroup(string) slog.Handler      { return l }

// count returns how many records carry msg at level and every given
// string attribute value.
func (l *logRecorder) count(msg string, level slog.Level, attrs map[string]string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.recs {
		if r.Message != msg || r.Level != level {
			continue
		}
		matched := 0
		r.Attrs(func(a slog.Attr) bool {
			if want, ok := attrs[a.Key]; ok && a.Value.String() == want {
				matched++
			}
			return true
		})
		if matched == len(attrs) {
			n++
		}
	}
	return n
}

// TestSweepLogsOneRecord: a standalone job logs "job finished" at Info, a
// sweep's children log it at Debug, and the sweep writes exactly one
// "sweep finished" with its counts.  Both records follow the wake-up of
// waiters, so the test waits for them.
func TestSweepLogsOneRecord(t *testing.T) {
	rec := &logRecorder{}
	obs.SetLogger(slog.New(rec))
	t.Cleanup(func() { obs.SetLogger(nil) })
	e := newBodyEnv(t)
	e.release()

	id, _ := e.submit("free", "?wait=10s", 1)
	sw, err := e.c.jobs.SubmitSweep(context.Background(), "gate", &core.SweepSpec{
		Axes: map[string][]any{"x": {1.0, 2.0, 3.0}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.jobs.WaitSweep(context.Background(), sw.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sweepAttrs := map[string]string{"sweep_id": sw.ID, "service": "gate", "done": "3", "error": "0", "cancelled": "0"}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if rec.count("sweep finished", slog.LevelInfo, sweepAttrs) == 1 &&
			rec.count("job finished", slog.LevelInfo, map[string]string{"job_id": id}) == 1 &&
			rec.count("job finished", slog.LevelDebug, map[string]string{"service": "gate"}) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records: sweep finished %d, standalone job finished (Info) %d, children (Debug) %d",
				rec.count("sweep finished", slog.LevelInfo, sweepAttrs),
				rec.count("job finished", slog.LevelInfo, map[string]string{"job_id": id}),
				rec.count("job finished", slog.LevelDebug, map[string]string{"service": "gate"}))
		}
	}
	if n := rec.count("job finished", slog.LevelInfo, map[string]string{"service": "gate"}); n != 0 {
		t.Fatalf("%d sweep children logged at Info", n)
	}
	if n := rec.count("sweep finished", slog.LevelInfo, nil); n != 1 {
		t.Fatalf("%d sweep finished records, want 1", n)
	}
}
