package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/core"
)

// fakeService is a minimal HTTP stub of the unified REST API for client
// tests that must not depend on the container package.
func fakeService(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	var srvURL string
	mux.HandleFunc("/services/echo", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			json.NewEncoder(w).Encode(core.ServiceDescription{
				Name: "echo", URI: srvURL + "/services/echo",
			})
		case http.MethodPost:
			var in core.Values
			if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
				w.WriteHeader(400)
				return
			}
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(core.Job{
				ID:      "job1",
				Service: "echo",
				State:   core.StateDone,
				Outputs: in,
				URI:     srvURL + "/services/echo/jobs/job1",
			})
		}
	})
	mux.HandleFunc("/services/echo/jobs/job1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(core.Job{
			ID: "job1", Service: "echo", State: core.StateDone,
			Outputs: core.Values{"ok": true},
		})
	})
	mux.HandleFunc("/services/secure", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer tok123" {
			w.WriteHeader(http.StatusUnauthorized)
			json.NewEncoder(w).Encode(map[string]any{"error": "no credentials", "status": 401})
			return
		}
		json.NewEncoder(w).Encode(core.ServiceDescription{Name: "secure"})
	})
	mux.HandleFunc("/services/broken", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(core.Job{
			ID: "b1", Service: "broken", State: core.StateError,
			Error: "adapter exploded",
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(404)
		json.NewEncoder(w).Encode(map[string]any{"error": "nope", "status": 404})
	})
	srv := httptest.NewServer(mux)
	srvURL = srv.URL
	t.Cleanup(srv.Close)
	return srv
}

func TestCallReturnsOutputs(t *testing.T) {
	srv := fakeService(t)
	out, err := New().Service(srv.URL+"/services/echo").Call(
		context.Background(), core.Values{"msg": "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if out["msg"] != "hi" {
		t.Errorf("out = %v", out)
	}
}

func TestErrorStateBecomesJobError(t *testing.T) {
	srv := fakeService(t)
	_, err := New().Service(srv.URL+"/services/broken").Call(
		context.Background(), core.Values{})
	var je *JobError
	if !asJobErr(err, &je) {
		t.Fatalf("err = %v, want JobError", err)
	}
	if !strings.Contains(je.Error(), "adapter exploded") {
		t.Errorf("JobError = %v", je)
	}
}

func asJobErr(err error, target **JobError) bool {
	for err != nil {
		if e, ok := err.(*JobError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestNotFoundMapsToAPIError(t *testing.T) {
	srv := fakeService(t)
	_, err := New().Service(srv.URL + "/services/missing").Describe(context.Background())
	if !IsNotFound(err) {
		t.Errorf("err = %v, want 404", err)
	}
}

func TestBearerTokenAttached(t *testing.T) {
	srv := fakeService(t)
	cl := New()
	if _, err := cl.Service(srv.URL + "/services/secure").Describe(context.Background()); err == nil {
		t.Error("unauthenticated describe succeeded")
	}
	cl.Token = "tok123"
	if _, err := cl.Service(srv.URL + "/services/secure").Describe(context.Background()); err != nil {
		t.Errorf("authenticated describe failed: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New().Service(slow.URL).Describe(ctx)
	if err == nil {
		t.Fatal("describe against stalled server succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("context cancellation not honoured")
	}
}

func TestFetchFileRejectsNonRef(t *testing.T) {
	if _, err := New().FetchFile(context.Background(), "not a ref"); err == nil {
		t.Error("plain string accepted as file ref")
	}
}

// A server that ignores the wait query parameter and answers instantly with
// a non-terminal job must not be polled in a zero-delay busy loop: Wait
// enforces the client's minimum poll interval between windows.
func TestWaitEnforcesMinPollInterval(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		json.NewEncoder(w).Encode(core.Job{ID: "j1", Service: "s", State: core.StateRunning})
	}))
	defer srv.Close()

	cl := New()
	cl.MinPoll = 25 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := cl.Service(srv.URL+"/services/s").Wait(ctx, srv.URL+"/services/s/jobs/j1"); err == nil {
		t.Fatal("Wait returned without a terminal state")
	}
	mu.Lock()
	got := requests
	mu.Unlock()
	// 200 ms / 25 ms ≈ 8 polls; a busy loop would make thousands.
	if got > 20 {
		t.Errorf("server polled %d times in 200ms despite a 25ms minimum interval", got)
	}
	if got < 2 {
		t.Errorf("server polled only %d times; Wait gave up too early", got)
	}
}

func TestAPIErrorMessage(t *testing.T) {
	err := &APIError{Status: 409, Message: "queue full"}
	if !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "queue full") {
		t.Errorf("message = %q", err.Error())
	}
}

// TestDecodeBodyMatchesDecoder pins decodeBody to the json.Decoder it
// replaced for jobs and pages: the first value decodes and what follows it
// is ignored, a broken body fails as the Decoder fails, and a read error
// after a whole value is no error.
func TestDecodeBodyMatchesDecoder(t *testing.T) {
	bodies := []string{
		`{"id":"a","state":"DONE","outputs":{"y":2}}`,
		`{"id":"a"}` + "\n",
		`{"id":"a"} {"id":"b"}`,
		`{"id":"a"}garbage`,
		`{"ID":"a","state":"RUNNING"}`,
		`{"id":"a","outputs":{"y":"xy"}}`,
		`{"id":5,"state":"DONE"}`,
		`{"id":"a"`,
		``,
		`null`,
	}
	readErr := errors.New("connection reset")
	for _, body := range bodies {
		for _, failing := range []bool{false, true} {
			open := func() io.Reader {
				var r io.Reader = strings.NewReader(body)
				if failing {
					r = io.MultiReader(r, errReader{readErr})
				}
				return r
			}
			var got, want core.Job
			gotErr := decodeBody(open(), &got)
			wantErr := json.NewDecoder(open()).Decode(&want)
			if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
				t.Errorf("job %q (read error %v): got %+v, %v; want %+v, %v", body, failing, got, gotErr, want, wantErr)
			}
			page := `{"jobs":[` + body + `],"total":1}`
			var gotPage, wantPage core.JobPage
			gotErr = decodeBody(strings.NewReader(page), &gotPage)
			wantErr = json.NewDecoder(strings.NewReader(page)).Decode(&wantPage)
			if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !reflect.DeepEqual(gotPage, wantPage) {
				t.Errorf("page %q: got %+v, %v; want %+v, %v", page, gotPage, gotErr, wantPage, wantErr)
			}
		}
	}
}
