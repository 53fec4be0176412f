package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/rest"
)

// watchKinds runs every follow/fallback test over both watchable resources:
// WaitSSE over a job and WaitSweepSSE over a sweep share one code path, and
// each test pins that the path works for both.
var watchKinds = []struct {
	name string
	coll string // collection segment of the resource path
	typ  string // SSE event type of the resource's frames
	wait func(*Service, context.Context, string) (core.JobState, error)
}{
	{"job", "jobs", events.TypeJob, func(s *Service, ctx context.Context, uri string) (core.JobState, error) {
		j, err := s.WaitSSE(ctx, uri)
		if err != nil {
			return "", err
		}
		return j.State, nil
	}},
	{"sweep", "sweeps", events.TypeSweep, func(s *Service, ctx context.Context, uri string) (core.JobState, error) {
		sw, err := s.WaitSweepSSE(ctx, uri)
		if err != nil {
			return "", err
		}
		return sw.State, nil
	}},
}

// stateJSON is a representation both core.Job and core.Sweep decode.
func stateJSON(state core.JobState) []byte {
	data, _ := json.Marshal(map[string]any{"id": "r1", "state": state})
	return data
}

// sseServer stubs a resource (always DONE when polled) plus, when stream is
// set, an /events route running it.  It counts poll and stream requests.
func sseServer(t *testing.T, coll string, stream http.HandlerFunc) (uri string, pollHits, streamHits *atomic.Int64) {
	t.Helper()
	pollHits, streamHits = new(atomic.Int64), new(atomic.Int64)
	mux := http.NewServeMux()
	path := "/services/echo/" + coll + "/r1"
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		pollHits.Add(1)
		w.Write(stateJSON(core.StateDone))
	})
	if stream != nil {
		mux.HandleFunc(path+"/events", func(w http.ResponseWriter, r *http.Request) {
			streamHits.Add(1)
			stream(w, r)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL + path, pollHits, streamHits
}

func TestWaitSSEFollowsStream(t *testing.T) {
	for _, k := range watchKinds {
		t.Run(k.name, func(t *testing.T) {
			uri, pollHits, streamHits := sseServer(t, k.coll, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
				w.WriteHeader(http.StatusOK)
				events.WriteEvent(w, events.Event{ID: 1, Type: k.typ, Data: stateJSON(core.StateRunning)})
				events.WriteEvent(w, events.Event{ID: 2, Type: k.typ, Data: stateJSON(core.StateDone), End: true})
			})
			state, err := k.wait(New().Service(uri), context.Background(), uri)
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if state != core.StateDone {
				t.Fatalf("state = %s, want DONE", state)
			}
			if streamHits.Load() != 1 || pollHits.Load() != 0 {
				t.Fatalf("stream=%d poll=%d, want the single stream request and no polls",
					streamHits.Load(), pollHits.Load())
			}
		})
	}
}

// TestWaitSSEFallsBackToPolling: a server without /events routes (404)
// must be handled transparently by degrading to the long-poll loop.
func TestWaitSSEFallsBackToPolling(t *testing.T) {
	for _, k := range watchKinds {
		t.Run(k.name, func(t *testing.T) {
			uri, pollHits, _ := sseServer(t, k.coll, nil) // no /events route: 404
			state, err := k.wait(New().Service(uri), context.Background(), uri)
			if err != nil {
				t.Fatalf("wait fallback: %v", err)
			}
			if state != core.StateDone || pollHits.Load() == 0 {
				t.Fatalf("fallback did not poll: state=%s polls=%d", state, pollHits.Load())
			}
		})
	}
}

// TestWaitSSEFallsBackOnWrongContentType: an intermediary answering 200
// with JSON instead of an event stream is as unusable as a 404.
func TestWaitSSEFallsBackOnWrongContentType(t *testing.T) {
	for _, k := range watchKinds {
		t.Run(k.name, func(t *testing.T) {
			uri, pollHits, _ := sseServer(t, k.coll, func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(map[string]string{"not": "a stream"})
			})
			state, err := k.wait(New().Service(uri), context.Background(), uri)
			if err != nil || state != core.StateDone || pollHits.Load() == 0 {
				t.Fatalf("wait = %s, %v after %d polls", state, err, pollHits.Load())
			}
		})
	}
}

// TestWaitSSEFallsBackOnOversizeFrame: a frame past the scanner's cap is
// unusable on the stream, but the resource GET has no such cap, so the
// wait polls instead of failing.
func TestWaitSSEFallsBackOnOversizeFrame(t *testing.T) {
	chunk := strings.Repeat("x", 1<<20)
	for _, k := range watchKinds {
		t.Run(k.name, func(t *testing.T) {
			uri, pollHits, _ := sseServer(t, k.coll, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream")
				io.WriteString(w, "event: "+k.typ+"\ndata: ")
				for n := 0; n <= rest.MaxBodyBytes; n += len(chunk) {
					io.WriteString(w, chunk)
				}
				io.WriteString(w, "\n\n")
			})
			state, err := k.wait(New().Service(uri), context.Background(), uri)
			if err != nil || state != core.StateDone || pollHits.Load() == 0 {
				t.Fatalf("wait = %s, %v after %d polls", state, err, pollHits.Load())
			}
		})
	}
}

// TestEventsReconnectResumes: after an idle server close the client
// reconnects with Last-Event-ID and continues from where it left off.
func TestEventsReconnectResumes(t *testing.T) {
	for _, k := range watchKinds {
		t.Run(k.name, func(t *testing.T) {
			var seen atomic.Int64
			uri, _, conns := sseServer(t, k.coll, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream")
				w.WriteHeader(http.StatusOK)
				if seen.Add(1) == 1 {
					// First connection: one frame, then an idle close.
					events.WriteEvent(w, events.Event{ID: 1, Type: k.typ, Data: stateJSON(core.StateRunning)})
					return
				}
				if got := r.Header.Get("Last-Event-ID"); got != "1" {
					t.Errorf("reconnect Last-Event-ID = %q, want 1", got)
				}
				events.WriteEvent(w, events.Event{ID: 2, Type: k.typ, Data: stateJSON(core.StateDone), End: true})
			})
			c := New()
			c.MinPoll = time.Millisecond // fast reconnect pause for the test
			state, err := k.wait(c.Service(uri), context.Background(), uri)
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if state != core.StateDone || conns.Load() != 2 {
				t.Fatalf("state=%s conns=%d, want DONE over 2 connections", state, conns.Load())
			}
		})
	}
}

// TestEventsUnsupportedSurfaced: direct Events callers can detect the
// degradation condition with errors.Is.
func TestEventsUnsupportedSurfaced(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(srv.Close)
	err := New().Service(srv.URL+"/services/x").Events(context.Background(),
		srv.URL+"/services/x/jobs/j", func(events.Event) (bool, error) { return true, nil })
	if !errors.Is(err, ErrEventsUnsupported) {
		t.Fatalf("err = %v, want ErrEventsUnsupported", err)
	}
}

// TestClientRespectsAdvertisedWaitMax: a server advertising Wait-Max: 1s
// must not be asked for the client's larger default window on the next
// poll — the long-poll loop shrinks to the server's ceiling.
func TestClientRespectsAdvertisedWaitMax(t *testing.T) {
	var polls atomic.Int64
	waits := make(chan string, 8)
	mux := http.NewServeMux()
	mux.HandleFunc("/services/echo/jobs/job1", func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1)
		waits <- r.URL.Query().Get("wait")
		w.Header().Set(rest.WaitMaxHeader, "1s")
		state := core.StateRunning
		if n >= 2 {
			state = core.StateDone
		}
		json.NewEncoder(w).Encode(core.Job{ID: "job1", State: state})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	c := New()
	c.WaitWindow = 30 * time.Second
	c.MinPoll = time.Millisecond
	job, err := c.Service(srv.URL+"/services/echo").Wait(
		context.Background(), srv.URL+"/services/echo/jobs/job1")
	if err != nil || job.State != core.StateDone {
		t.Fatalf("Wait = %+v, %v", job, err)
	}
	first, second := <-waits, <-waits
	if first != "30s" {
		t.Fatalf("first poll wait = %q, want the client default 30s", first)
	}
	if d, err := time.ParseDuration(second); err != nil || d > time.Second {
		t.Fatalf("second poll wait = %q, want shrunk to the advertised 1s ceiling", second)
	}
}
