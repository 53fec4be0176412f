package container_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
	"mathcloud/internal/workflow"
)

// TestAdapterInputsStayImmutable: an adapter's Request.Inputs is the job
// resource's own map, so no adapter may write to it.  Three adapters that
// do write to their inputs — a script that assigns in.x, a native function
// that writes to its map, a workflow that fills in a defaulted optional
// input — each run a job and a sweep while their job resources are polled.
// Every poll and the final DONE resource must show the inputs as
// submitted; under -race, a write into the shared map is also a report.
func TestAdapterInputsStayImmutable(t *testing.T) {
	reg := adapter.NewRegistry()
	reg.Register("workflow", workflow.NewAdapterFactory(workflow.NewLocalInvoker(nil), nil))
	c, err := container.New(container.Options{Workers: 2, Adapters: reg, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)

	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	adapter.RegisterFunc("immutable.native", func(ctx context.Context, in core.Values) (core.Values, error) {
		x, _ := in["x"].(float64)
		in["x"] = "written by the adapter"
		in["extra"] = true
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.Values{"y": x + 1}, nil
	})
	num := jsonschema.New(jsonschema.TypeNumber)
	wf := &workflow.Workflow{
		Name: "immutable-wf",
		Blocks: []workflow.Block{
			{ID: "x", Type: workflow.BlockInput, Name: "x", Schema: num, Optional: true, Default: 7.0},
			{ID: "y", Type: workflow.BlockInput, Name: "y", Schema: num},
			{ID: "sum", Type: workflow.BlockScript, Script: "out.v = in.a + in.b",
				Inputs:  []workflow.PortDecl{{Name: "a"}, {Name: "b"}},
				Outputs: []workflow.PortDecl{{Name: "v", Schema: num}}},
			{ID: "v", Type: workflow.BlockOutput, Name: "v"},
		},
		Edges: []workflow.Edge{
			{From: workflow.PortRef{Block: "x", Port: "value"}, To: workflow.PortRef{Block: "sum", Port: "a"}},
			{From: workflow.PortRef{Block: "y", Port: "value"}, To: workflow.PortRef{Block: "sum", Port: "b"}},
			{From: workflow.PortRef{Block: "sum", Port: "v"}, To: workflow.PortRef{Block: "v", Port: "value"}},
		},
	}
	deploy := func(cfg container.ServiceConfig) {
		t.Helper()
		if err := c.Deploy(cfg); err != nil {
			t.Fatalf("Deploy %s: %v", cfg.Description.Name, err)
		}
	}
	deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "script",
			Inputs: []core.Param{{Name: "x"}}, Outputs: []core.Param{{Name: "y"}}},
		Adapter: container.AdapterSpec{Kind: "script",
			Config: mustJSON(t, adapter.ScriptConfig{Script: "in.x = in.x + 100\nout.y = in.x"})},
	})
	deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "native",
			Inputs: []core.Param{{Name: "x"}}, Outputs: []core.Param{{Name: "y"}}},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "immutable.native"})},
	})
	deploy(container.ServiceConfig{
		Description: wf.CompositeDescription(),
		Adapter:     container.AdapterSpec{Kind: "workflow", Config: mustJSON(t, workflow.AdapterConfig{Workflow: wf})},
	})

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return body
	}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s = %d, %v: %s", path, resp.StatusCode, err, data)
		}
		return data
	}
	// sameInputs fails unless the job body's inputs are want.
	sameInputs := func(what string, job core.Job, want core.Values) {
		t.Helper()
		if !reflect.DeepEqual(job.Inputs, want) {
			t.Errorf("%s: job %s (%s) inputs %v, want %v", what, job.ID, job.State, job.Inputs, want)
		}
	}
	// poll GETs the job once, checking its inputs.
	poll := func(service, id string, want core.Values) core.Job {
		t.Helper()
		var job core.Job
		if err := json.Unmarshal(get("/services/"+service+"/jobs/"+id), &job); err != nil {
			t.Fatal(err)
		}
		sameInputs("GET of a "+service+" job", job, want)
		return job
	}
	// pollUntil polls the job until it is in state or past it.
	pollUntil := func(service, id string, want core.Values, state core.JobState) core.Job {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			job := poll(service, id, want)
			if job.State == state || job.State.Terminal() {
				return job
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s job %s still %s", service, id, job.State)
			}
		}
	}

	cases := []struct {
		service string
		inputs  core.Values
		axis    string
		points  []any
	}{
		{"script", core.Values{"x": 1.0}, "x", []any{1.0, 2.0, 3.0}},
		{"native", core.Values{"x": 1.0}, "x", []any{1.0, 2.0, 3.0}},
		{"immutable-wf", core.Values{"y": 1.0}, "y", []any{1.0, 2.0}},
	}
	for _, tc := range cases {
		var job core.Job
		if err := json.Unmarshal(post("/services/"+tc.service, string(mustJSON(t, tc.inputs))), &job); err != nil {
			t.Fatal(err)
		}
		if tc.service == "native" {
			// The function writes to its map, then blocks while polled.
			pollUntil(tc.service, job.ID, tc.inputs, core.StateRunning)
			time.Sleep(10 * time.Millisecond)
			poll(tc.service, job.ID, tc.inputs)
			release.Do(func() { close(gate) })
		}
		if done := pollUntil(tc.service, job.ID, tc.inputs, core.StateDone); done.State != core.StateDone {
			t.Fatalf("%s job %s: %s (%s)", tc.service, done.ID, done.State, done.Error)
		}

		spec := core.SweepSpec{Axes: map[string][]any{tc.axis: tc.points}}
		var sw core.Sweep
		if err := json.Unmarshal(post("/services/"+tc.service+"/sweeps", string(mustJSON(t, spec))), &sw); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			var page core.JobPage
			if err := json.Unmarshal(get("/services/"+tc.service+"/sweeps/"+sw.ID+"/jobs"), &page); err != nil {
				t.Fatal(err)
			}
			terminal := 0
			for i, child := range page.Jobs {
				sameInputs(tc.service+" sweep child", *child, core.Values{tc.axis: tc.points[i]})
				if child.State == core.StateDone {
					terminal++
				} else if child.State.Terminal() {
					t.Fatalf("%s sweep child %s: %s (%s)", tc.service, child.ID, child.State, child.Error)
				}
			}
			if terminal == len(tc.points) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s sweep %s: %d of %d children DONE", tc.service, sw.ID, terminal, len(tc.points))
			}
		}
	}
}
