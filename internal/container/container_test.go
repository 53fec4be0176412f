package container_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
)

// startContainer spins up a container with the "add" and "sleepy" test
// services behind an httptest server.
func startContainer(t testing.TB) (*container.Container, *httptest.Server) {
	t.Helper()
	adapter.RegisterFunc("test.add", func(ctx context.Context, in core.Values) (core.Values, error) {
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
	adapter.RegisterFunc("test.sleepy", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-time.After(10 * time.Second):
			return core.Values{"ok": true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	c, err := container.New(container.Options{Workers: 4, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)

	num := jsonschema.New(jsonschema.TypeNumber)
	deploy := func(name, fn string, inputs, outputs []core.Param) {
		cfg := container.ServiceConfig{
			Description: core.ServiceDescription{
				Name:        name,
				Title:       name,
				Description: "test service " + name,
				Inputs:      inputs,
				Outputs:     outputs,
			},
			Adapter: container.AdapterSpec{
				Kind:   "native",
				Config: mustJSON(t, adapter.NativeConfig{Function: fn}),
			},
		}
		if err := c.Deploy(cfg); err != nil {
			t.Fatalf("Deploy %s: %v", name, err)
		}
	}
	deploy("add", "test.add",
		[]core.Param{{Name: "a", Schema: num}, {Name: "b", Schema: num}},
		[]core.Param{{Name: "sum", Schema: num}})
	deploy("sleepy", "test.sleepy", nil,
		[]core.Param{{Name: "ok", Optional: true}})

	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)
	return c, srv
}

func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// quietLogger silences container logs in tests.
func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func TestServiceDescriptionIntrospection(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	desc, err := svc.Describe(context.Background())
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if desc.Name != "add" {
		t.Errorf("name = %q, want add", desc.Name)
	}
	if len(desc.Inputs) != 2 || len(desc.Outputs) != 1 {
		t.Errorf("inputs/outputs = %d/%d, want 2/1", len(desc.Inputs), len(desc.Outputs))
	}
	if desc.URI == "" {
		t.Error("description has no URI")
	}
	if p, ok := desc.Input("a"); !ok || p.Schema == nil || p.Schema.Type != jsonschema.TypeNumber {
		t.Errorf("input a schema not round-tripped: %+v ok=%v", p, ok)
	}
}

func TestSubmitAndWait(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	out, err := svc.Call(context.Background(), core.Values{"a": 2.0, "b": 40.0})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := out["sum"]; got != 42.0 {
		t.Errorf("sum = %v, want 42", got)
	}
}

func TestSynchronousMode(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	job, err := svc.Submit(context.Background(), core.Values{"a": 1.0, "b": 2.0}, 5*time.Second)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.State != core.StateDone {
		t.Fatalf("synchronous submit returned state %s, want DONE", job.State)
	}
	if job.Outputs["sum"] != 3.0 {
		t.Errorf("sum = %v, want 3", job.Outputs["sum"])
	}
}

func TestAsynchronousLifecycle(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	job, err := svc.Submit(context.Background(), core.Values{"a": 5.0, "b": 6.0}, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.URI == "" {
		t.Fatal("job has no URI")
	}
	final, err := svc.Wait(context.Background(), job.URI)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != core.StateDone {
		t.Fatalf("state = %s, want DONE (err %s)", final.State, final.Error)
	}
	if final.Created.IsZero() || final.Started.IsZero() || final.Finished.IsZero() {
		t.Error("lifecycle timestamps not all set")
	}
}

func TestInputValidationRejectsBadRequests(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	ctx := context.Background()

	cases := []struct {
		name   string
		inputs core.Values
	}{
		{"missing required", core.Values{"a": 1.0}},
		{"wrong type", core.Values{"a": "one", "b": 2.0}},
		{"unknown parameter", core.Values{"a": 1.0, "b": 2.0, "c": 3.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Submit(ctx, tc.inputs, 0)
			var api *client.APIError
			if err == nil {
				t.Fatal("submit succeeded, want 400")
			}
			if !asAPIErr(err, &api) || api.Status != http.StatusBadRequest {
				t.Fatalf("error = %v, want 400 APIError", err)
			}
		})
	}
}

func asAPIErr(err error, target **client.APIError) bool {
	for err != nil {
		if e, ok := err.(*client.APIError); ok {
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

func TestCancelRunningJob(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/sleepy")
	ctx := context.Background()
	job, err := svc.Submit(ctx, core.Values{}, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Give the worker a moment to pick the job up, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := svc.Job(ctx, job.URI)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		if j.State == core.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: state %s", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := svc.Cancel(ctx, job.URI); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := svc.Wait(ctx, job.URI)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != core.StateCancelled {
		t.Errorf("state = %s, want CANCELLED", final.State)
	}
}

func TestDeleteTerminalJobPurgesIt(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	ctx := context.Background()
	job, err := svc.Submit(ctx, core.Values{"a": 1.0, "b": 1.0}, 5*time.Second)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.State != core.StateDone {
		t.Fatalf("state = %s, want DONE", job.State)
	}
	if _, err := svc.Cancel(ctx, job.URI); err != nil {
		t.Fatalf("delete job: %v", err)
	}
	if _, err := svc.Job(ctx, job.URI); !client.IsNotFound(err) {
		t.Errorf("job still retrievable after delete: err=%v", err)
	}
}

func TestFileResourceLifecycle(t *testing.T) {
	_, srv := startContainer(t)
	c := client.New()
	ctx := context.Background()
	payload := strings.Repeat("matrix-data;", 1000)

	ref, err := c.UploadFile(ctx, srv.URL, strings.NewReader(payload))
	if err != nil {
		t.Fatalf("UploadFile: %v", err)
	}
	if _, ok := core.FileRefID(ref); !ok {
		t.Fatalf("upload did not return a file ref: %q", ref)
	}
	data, err := c.FetchFile(ctx, ref)
	if err != nil {
		t.Fatalf("FetchFile: %v", err)
	}
	if string(data) != payload {
		t.Errorf("file round trip mismatch: %d bytes vs %d", len(data), len(payload))
	}
}

func TestFilePartialGET(t *testing.T) {
	_, srv := startContainer(t)
	c := client.New()
	ctx := context.Background()
	ref, err := c.UploadFile(ctx, srv.URL, strings.NewReader("0123456789"))
	if err != nil {
		t.Fatalf("UploadFile: %v", err)
	}
	uri, _ := core.FileRefID(ref)
	req, _ := http.NewRequest(http.MethodGet, uri, nil)
	req.Header.Set("Range", "bytes=2-5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("range GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "2345" {
		t.Errorf("partial content = %q, want 2345", buf.String())
	}
}

func TestIndexListsServices(t *testing.T) {
	_, srv := startContainer(t)
	names, err := client.New().ServiceNames(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("ServiceNames: %v", err)
	}
	if len(names) != 2 || names[0] != "add" || names[1] != "sleepy" {
		t.Errorf("names = %v, want [add sleepy]", names)
	}
}

func TestWebUIServedToBrowsers(t *testing.T) {
	_, srv := startContainer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/services/add", nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q, want text/html", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Submit a request", "sum", "number"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("web UI missing %q", want)
		}
	}
}

func TestUnknownServiceIs404(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/nope")
	_, err := svc.Describe(context.Background())
	if !client.IsNotFound(err) {
		t.Errorf("err = %v, want 404", err)
	}
}

func TestDeployDuplicateFails(t *testing.T) {
	c, _ := startContainer(t)
	err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "add"},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"test.add"}`)},
	})
	if err == nil {
		t.Fatal("duplicate deploy succeeded")
	}
}

func TestDeployUnknownAdapterFails(t *testing.T) {
	c, _ := startContainer(t)
	err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "x"},
		Adapter:     container.AdapterSpec{Kind: "bogus", Config: json.RawMessage(`{}`)},
	})
	if err == nil {
		t.Fatal("deploy with unknown adapter succeeded")
	}
}

func TestScriptServiceEndToEnd(t *testing.T) {
	c, srv := startContainer(t)
	err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "stats",
			Inputs:  []core.Param{{Name: "values", Schema: jsonschema.MustParse(`{"type":"array","items":{"type":"number"}}`)}},
			Outputs: []core.Param{{Name: "mean"}, {Name: "max"}},
		},
		Adapter: container.AdapterSpec{
			Kind: "script",
			Config: mustJSON(t, adapter.ScriptConfig{Script: `
				out.mean = sum(in.values) / len(in.values)
				out.max = max(in.values)
			`}),
		},
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	svc := client.New().Service(srv.URL + "/services/stats")
	out, err := svc.Call(context.Background(), core.Values{"values": []any{1.0, 2.0, 3.0, 6.0}})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out["mean"] != 3.0 || out["max"] != 6.0 {
		t.Errorf("out = %v, want mean 3 max 6", out)
	}
}

// TestFileGETFullAndRanged downloads a file whole and in part through
// Handler(), whose ingress writer hands the copy to the connection: the
// bytes and Content-Length are those of the stored file.
func TestFileGETFullAndRanged(t *testing.T) {
	_, srv := startContainer(t)
	payload := make([]byte, 1<<20+17)
	for i := range payload {
		payload[i] = byte(i * 7 / 3)
	}
	ref, err := client.New().UploadFile(context.Background(), srv.URL, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("UploadFile: %v", err)
	}
	uri, _ := core.FileRefID(ref)
	for _, tc := range []struct {
		rangeHdr   string
		status     int
		start, end int
	}{
		{"", http.StatusOK, 0, len(payload)},
		{"bytes=100000-299999", http.StatusPartialContent, 100000, 300000},
		{"bytes=-5", http.StatusPartialContent, len(payload) - 5, len(payload)},
	} {
		req, _ := http.NewRequest(http.MethodGet, uri, nil)
		if tc.rangeHdr != "" {
			req.Header.Set("Range", tc.rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %q: %v", tc.rangeHdr, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := payload[tc.start:tc.end]
		if resp.StatusCode != tc.status || resp.ContentLength != int64(len(want)) || !bytes.Equal(body, want) {
			t.Errorf("GET %q: %d, Content-Length %d, %d bytes (equal %v); want %d, %d bytes",
				tc.rangeHdr, resp.StatusCode, resp.ContentLength, len(body), bytes.Equal(body, want), tc.status, len(want))
		}
	}
}
