package container_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
)

// TestCommandServiceWithFileOutput exercises the full file pipeline: a
// command adapter produces an output file, the container publishes it as a
// file resource, and the client downloads it through the file reference.
func TestCommandServiceWithFileOutput(t *testing.T) {
	c, srv := startContainer(t)
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "upper",
			Inputs:  []core.Param{{Name: "text", Schema: jsonschema.New(jsonschema.TypeString)}},
			Outputs: []core.Param{{Name: "result"}},
		},
		Adapter: container.AdapterSpec{
			Kind: "command",
			Config: json.RawMessage(`{
				"command": "/bin/sh",
				"args": ["-c", "tr a-z A-Z < {text.path} > result.txt"],
				"inputFiles": {"text": "input.txt"},
				"outputFiles": {"result": "result.txt"}
			}`),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatal(err)
	}
	cl := client.New()
	ctx := context.Background()
	out, err := cl.Service(srv.URL+"/services/upper").Call(ctx, core.Values{"text": "hello files"})
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := out["result"].(string)
	if !ok || !strings.HasPrefix(ref, core.FileRefPrefix) {
		t.Fatalf("result = %v, want a file reference", out["result"])
	}
	data, err := cl.FetchFile(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "HELLO FILES" {
		t.Errorf("file content = %q", data)
	}
}

// TestFileInputStagedFromStore uploads a file and passes its reference as
// an input parameter; the container must stage it for the adapter.
func TestFileInputStagedFromStore(t *testing.T) {
	c, srv := startContainer(t)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "count",
			Inputs:  []core.Param{{Name: "data"}},
			Outputs: []core.Param{{Name: "n"}},
		},
		Adapter: container.AdapterSpec{
			Kind: "command",
			Config: json.RawMessage(`{
				"command": "/bin/sh",
				"args": ["-c", "wc -c < {data.path} | xargs printf '{{\"n\": %s}}'"],
				"stdoutJSON": true
			}`),
		},
	}); err != nil {
		t.Fatal(err)
	}
	cl := client.New()
	ctx := context.Background()
	ref, err := cl.UploadFile(ctx, srv.URL, strings.NewReader("12345"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Service(srv.URL+"/services/count").Call(ctx, core.Values{"data": ref})
	if err != nil {
		t.Fatal(err)
	}
	if out["n"] != 5.0 {
		t.Errorf("n = %v, want 5", out["n"])
	}
}

func TestDeletingJobPurgesItsFiles(t *testing.T) {
	c, srv := startContainer(t)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "emit",
			Outputs: []core.Param{{Name: "f"}},
		},
		Adapter: container.AdapterSpec{
			Kind: "command",
			Config: json.RawMessage(`{
				"command": "/bin/sh",
				"args": ["-c", "echo payload > out.bin"],
				"outputFiles": {"f": "out.bin"}
			}`),
		},
	}); err != nil {
		t.Fatal(err)
	}
	cl := client.New()
	ctx := context.Background()
	svc := cl.Service(srv.URL + "/services/emit")
	job, err := svc.Submit(ctx, core.Values{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != core.StateDone {
		t.Fatalf("state = %s (%s)", job.State, job.Error)
	}
	ref := job.Outputs["f"]
	if _, err := cl.FetchFile(ctx, ref); err != nil {
		t.Fatalf("file not fetchable before delete: %v", err)
	}
	if _, err := svc.Cancel(ctx, job.URI); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchFile(ctx, ref); err == nil {
		t.Error("job file survives job deletion; the unified API requires subordinate file resources to be destroyed")
	}
}

// A full queue is a transient overload condition: Submit answers with
// core.UnavailableError (503 + Retry-After on the wire), not a conflict,
// so client retry policies can absorb the spike.
func TestQueueFullRejectsWith503(t *testing.T) {
	adapter.RegisterFunc("test.block", func(ctx context.Context, in core.Values) (core.Values, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c, err := container.New(container.Options{Workers: 1, QueueSize: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "block", Outputs: []core.Param{{Name: "x", Optional: true}}},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"test.block"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	// Fill the single worker plus the single queue slot, then overflow.
	sawUnavailable := false
	for i := 0; i < 8; i++ {
		_, err := c.Jobs().Submit(context.Background(), "block", core.Values{}, container.SubmitOptions{})
		if err != nil {
			var unavail *core.UnavailableError
			if !asUnavailable(err, &unavail) {
				t.Fatalf("unexpected error: %v", err)
			}
			if unavail.RetryAfter <= 0 {
				t.Errorf("queue-full error carries no Retry-After hint: %+v", unavail)
			}
			sawUnavailable = true
			break
		}
	}
	if !sawUnavailable {
		t.Error("queue never filled up")
	}
}

func asUnavailable(err error, target **core.UnavailableError) bool {
	for err != nil {
		if e, ok := err.(*core.UnavailableError); ok {
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

func TestSchemaDefaultsApplied(t *testing.T) {
	adapter.RegisterFunc("test.mode", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"mode": in["mode"]}, nil
	})
	c, srv := startContainer(t)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "mode",
			Inputs: []core.Param{{Name: "mode",
				Schema: jsonschema.MustParse(`{"type":"string","default":"fast"}`)}},
			Outputs: []core.Param{{Name: "mode"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"test.mode"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := client.New().Service(srv.URL+"/services/mode").Call(
		context.Background(), core.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if out["mode"] != "fast" {
		t.Errorf("mode = %v, want default fast", out["mode"])
	}
}

func TestUndeployRemovesService(t *testing.T) {
	c, srv := startContainer(t)
	if err := c.Undeploy("add"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.New().Service(srv.URL + "/services/add").Describe(context.Background()); !client.IsNotFound(err) {
		t.Errorf("undeployed service still described: %v", err)
	}
	if err := c.Undeploy("add"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

func TestJobListEndpoint(t *testing.T) {
	_, srv := startContainer(t)
	svc := client.New().Service(srv.URL + "/services/add")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(ctx, core.Values{"a": float64(i), "b": 1.0}, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var list struct {
		Jobs []core.Job `json:"jobs"`
	}
	if err := getJSON(srv.URL+"/services/add/jobs", &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Errorf("jobs = %d, want 3", len(list.Jobs))
	}
}

func getJSON(uri string, v any) error {
	resp, err := http.Get(uri)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestAdapterProgressInJobLog(t *testing.T) {
	c, srv := startContainer(t)
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:    "loggy",
			Outputs: []core.Param{{Name: "out"}},
		},
		Adapter: container.AdapterSpec{
			Kind: "command",
			Config: json.RawMessage(`{
				"command": "/bin/echo", "args": ["hi"], "stdoutOutput": "out"
			}`),
		},
	}); err != nil {
		t.Fatal(err)
	}
	svc := client.New().Service(srv.URL + "/services/loggy")
	job, err := svc.Submit(context.Background(), core.Values{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Log) == 0 || !strings.Contains(job.Log[0], "executing") {
		t.Errorf("job log = %v, want command-adapter progress", job.Log)
	}
}
