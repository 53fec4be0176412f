package adapter

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/core"
)

func newRequest(t *testing.T, inputs core.Values) *Request {
	t.Helper()
	return &Request{
		JobID:   "job1",
		Service: "svc",
		Inputs:  inputs,
		Files:   map[string]string{},
		WorkDir: t.TempDir(),
	}
}

func TestRegistryKindsAndUnknown(t *testing.T) {
	r := NewRegistry()
	kinds := r.Kinds()
	want := []string{"chaos", "command", "native", "script"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if _, err := r.New("bogus", nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRegistryReplaceRegistration(t *testing.T) {
	r := NewRegistry()
	r.Register("custom", func(json.RawMessage) (Interface, error) {
		return nil, fmt.Errorf("v1")
	})
	r.Register("custom", func(json.RawMessage) (Interface, error) {
		return nil, fmt.Errorf("v2")
	})
	_, err := r.New("custom", nil)
	if err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("err = %v, want v2", err)
	}
}

func TestNativeAdapter(t *testing.T) {
	RegisterFunc("test.echo", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"echo": in["msg"]}, nil
	})
	a, err := NewNativeAdapter(json.RawMessage(`{"function": "test.echo"}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind() != "native" {
		t.Errorf("kind = %s", a.Kind())
	}
	res, err := a.Invoke(context.Background(), newRequest(t, core.Values{"msg": "hi"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["echo"] != "hi" {
		t.Errorf("echo = %v", res.Outputs["echo"])
	}
}

func TestNativeAdapterUnknownFunction(t *testing.T) {
	if _, err := NewNativeAdapter(json.RawMessage(`{"function": "no.such"}`)); err == nil {
		t.Error("unknown function accepted at configure time")
	}
}

func TestNativeAdapterNegativeSlowdownRejected(t *testing.T) {
	RegisterFunc("test.noop", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{}, nil
	})
	_, err := NewNativeAdapter(json.RawMessage(`{"function": "test.noop", "simulatedSlowdown": -1}`))
	if err == nil {
		t.Error("negative slowdown accepted")
	}
}

func TestNativeAdapterSimulatedSlowdown(t *testing.T) {
	RegisterFunc("test.burn", func(_ context.Context, in core.Values) (core.Values, error) {
		// Busy loop for 20 ms of this thread's CPU, the clock the adapter
		// scales its sleep by: 20 ms of wall time can be half that on a
		// busy host.  Where thread CPU time is unavailable the adapter
		// falls back to wall time, and so does the loop.
		const burn = 20 * time.Millisecond
		x := 0.0
		if cpu0, ok := threadCPUTime(); ok {
			for cpu, _ := threadCPUTime(); cpu-cpu0 < burn; cpu, _ = threadCPUTime() {
				x += 1
			}
		} else {
			for deadline := time.Now().Add(burn); time.Now().Before(deadline); {
				x += 1
			}
		}
		return core.Values{"x": x}, nil
	})
	a, err := NewNativeAdapter(json.RawMessage(`{"function": "test.burn", "simulatedSlowdown": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := a.Invoke(context.Background(), newRequest(t, core.Values{})); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 20 ms compute + 60 ms simulated sleep, generous bounds.
	if elapsed < 60*time.Millisecond {
		t.Errorf("elapsed %v, want >= 60ms (slowdown not applied)", elapsed)
	}
}

func TestScriptAdapter(t *testing.T) {
	a, err := NewScriptAdapter(json.RawMessage(`{"script": "out.y = in.x * 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Invoke(context.Background(), newRequest(t, core.Values{"x": 21.0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"] != 42.0 {
		t.Errorf("y = %v", res.Outputs["y"])
	}
}

func TestScriptAdapterRejectsBadSyntaxAtDeploy(t *testing.T) {
	if _, err := NewScriptAdapter(json.RawMessage(`{"script": "out.y = "}`)); err == nil {
		t.Error("bad script accepted at configure time")
	}
}

func TestCommandAdapterArgsAndStdout(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/echo",
		"args": ["result:", "{x}"],
		"stdoutOutput": "text"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Invoke(context.Background(), newRequest(t, core.Values{"x": 7.0}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(res.Outputs["text"].(string)) != "result: 7" {
		t.Errorf("text = %q", res.Outputs["text"])
	}
}

func TestCommandAdapterStdoutJSON(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/sh",
		"args": ["-c", "echo '{{\"y\": 49}}'"],
		"stdoutJSON": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Invoke(context.Background(), newRequest(t, core.Values{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"] != 49.0 {
		t.Errorf("y = %v", res.Outputs["y"])
	}
}

func TestCommandAdapterStdinTemplate(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/cat",
		"stdin": "hello {name}",
		"stdoutOutput": "out"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Invoke(context.Background(), newRequest(t, core.Values{"name": "world"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out"] != "hello world" {
		t.Errorf("out = %q", res.Outputs["out"])
	}
}

func TestCommandAdapterInputOutputFiles(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/sh",
		"args": ["-c", "tr a-z A-Z < {data.path} > out.txt"],
		"inputFiles": {"data": "in.txt"},
		"outputFiles": {"result": "out.txt"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	req := newRequest(t, core.Values{"data": "shout this"})
	res, err := a.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	path, ok := res.Files["result"]
	if !ok {
		t.Fatal("no result file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "SHOUT THIS" {
		t.Errorf("result = %q", data)
	}
}

func TestCommandAdapterStagedFileInput(t *testing.T) {
	req := newRequest(t, core.Values{"data": core.FileRef("xyz")})
	staged := filepath.Join(req.WorkDir, "staged")
	if err := os.WriteFile(staged, []byte("from store"), 0o600); err != nil {
		t.Fatal(err)
	}
	req.Files["data"] = staged
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/cat",
		"args": ["{data.path}"],
		"stdoutOutput": "out"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out"] != "from store" {
		t.Errorf("out = %q", res.Outputs["out"])
	}
}

func TestCommandAdapterFailureIncludesStderr(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/sh",
		"args": ["-c", "echo boom >&2; exit 3"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Invoke(context.Background(), newRequest(t, core.Values{}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want stderr content", err)
	}
}

func TestCommandAdapterUnknownPlaceholder(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/echo",
		"args": ["{missing}"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Invoke(context.Background(), newRequest(t, core.Values{}))
	if err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("err = %v", err)
	}
}

func TestCommandAdapterCancellation(t *testing.T) {
	a, err := NewCommandAdapter(json.RawMessage(`{
		"command": "/bin/sleep",
		"args": ["10"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = a.Invoke(ctx, newRequest(t, core.Values{}))
	if err == nil {
		t.Fatal("cancelled command succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not interrupt the process")
	}
}

func TestCommandAdapterEmptyCommandRejected(t *testing.T) {
	if _, err := NewCommandAdapter(json.RawMessage(`{"command": "  "}`)); err == nil {
		t.Error("empty command accepted")
	}
}

func TestExpandTemplateEscapes(t *testing.T) {
	req := &Request{Inputs: core.Values{"x": 5.0}, WorkDir: "/w"}
	got, err := expandTemplate(`{{"x": {x}, "dir": "{workdir}"}}`, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != `{"x": 5, "dir": "/w"}` {
		t.Errorf("expand = %q", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{"s", "s"},
		{3.0, "3"},
		{3.5, "3.5"},
		{true, "true"},
		{false, "false"},
		{nil, ""},
		{[]any{1.0, 2.0}, "[1,2]"},
	}
	for _, tc := range cases {
		if got := valueString(tc.v); got != tc.want {
			t.Errorf("valueString(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
