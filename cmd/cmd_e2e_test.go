// Package cmd_test is the end-to-end test of the command-line binaries:
// it builds them with the Go toolchain, wires them together over real TCP
// ports, drives the deployment with the CLI client and stops the servers
// the way an operator does — the closest this repository gets to the
// paper's operational setup.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mathcloud/internal/obs"
)

// buildBinaries compiles the named commands into a test directory.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("e2e binary test is slow")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./"+name)
		cmd.Dir = "." // cmd/ directory
		if output, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, output)
		}
		bins[name] = out
	}
	return bins
}

// freePort reserves a loopback port.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// startServer launches a binary and waits for its HTTP endpoint.  It
// returns the process, so tests can signal it, and its base URL.
func startServer(t *testing.T, bin string, port int, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	return startServerLog(t, bin, port, os.Stderr, extra...)
}

// startServerLog is startServer with the server's stderr (its log) sent to
// the given writer.
func startServerLog(t *testing.T, bin string, port int, stderr io.Writer, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + addr
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Stop cleanly, so an everest without -data removes its temporary
		// data directory; kill only a server that hangs.
		_ = cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() { _, _ = cmd.Process.Wait(); close(exited) }()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/")
		if err == nil {
			resp.Body.Close()
			return cmd, base
		}
		if time.Now().After(deadline) {
			t.Fatalf("server %s never came up on %s", bin, addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stopServer sends sig to a server started by startServer and requires it to
// exit 0: a shutdown signal is a clean exit, not a crash.
func stopServer(t *testing.T, cmd *exec.Cmd, sig os.Signal) {
	t.Helper()
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s after %v: %v, want exit status 0", filepath.Base(cmd.Path), sig, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after %v", filepath.Base(cmd.Path), sig)
	}
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("mcctl %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestBinariesEndToEnd(t *testing.T) {
	bins := buildBinaries(t, "everest", "catalogue", "wms", "mcctl")

	// Container with built-in services plus a config-file service.
	cfgPath := filepath.Join(t.TempDir(), "services.json")
	cfg := `{
	  "clusters": [{"name": "local", "nodes": [{"name": "n1", "slots": 2}]}],
	  "services": [{
	    "description": {
	      "name": "wordcount",
	      "inputs":  [{"name": "text", "schema": {"type": "string"}}],
	      "outputs": [{"name": "count"}]
	    },
	    "adapter": {
	      "kind": "cluster",
	      "config": {
	        "cluster": "local",
	        "exec": {"kind": "command", "config": {
	          "command": "/bin/sh",
	          "args": ["-c", "printf '%s' \"{text}\" | wc -w | xargs printf '{{\"count\": %s}}'"],
	          "stdoutJSON": true
	        }}
	      }
	    }
	  }]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o600); err != nil {
		t.Fatal(err)
	}
	everestPort := freePort(t)
	_, everest := startServer(t, bins["everest"], everestPort,
		"-builtin", "-config", cfgPath,
		"-base-url", fmt.Sprintf("http://127.0.0.1:%d", everestPort))
	_, catalogueURL := startServer(t, bins["catalogue"], freePort(t), "-ping", "0")

	// mcctl services lists the deployed services.
	out := runCLI(t, bins["mcctl"], "services", everest)
	for _, want := range []string{"maxima", "solver", "wordcount", "xray-curve"} {
		if !strings.Contains(out, want) {
			t.Errorf("services output lacks %q:\n%s", want, out)
		}
	}

	// mcctl call drives the config-file cluster service.
	out = runCLI(t, bins["mcctl"], "call", everest+"/services/wordcount",
		`{"text": "four words in here"}`)
	var result map[string]any
	if err := json.Unmarshal([]byte(out), &result); err != nil {
		t.Fatalf("call output not JSON: %v\n%s", err, out)
	}
	if result["count"] != 4.0 {
		t.Errorf("count = %v, want 4", result["count"])
	}

	// mcctl call against the built-in CAS service.
	out = runCLI(t, bins["mcctl"], "call", everest+"/services/maxima",
		`{"expr": "trace(invert(hilbert(4)) * hilbert(4))"}`)
	if !strings.Contains(out, `"result": "4"`) {
		t.Errorf("CAS trace = %s, want 4", out)
	}

	// Register and search in the catalogue.
	runCLI(t, bins["mcctl"], "register", catalogueURL,
		everest+"/services/maxima", "cas", "matrix")
	out = runCLI(t, bins["mcctl"], "search", catalogueURL, "algebra")
	if !strings.Contains(out, "maxima") {
		t.Errorf("catalogue search missed the service:\n%s", out)
	}

	// WMS: save a workflow that composes the CAS service, then execute
	// the composite service through mcctl.
	wmsPort := freePort(t)
	_, wms := startServer(t, bins["wms"], wmsPort,
		"-base-url", fmt.Sprintf("http://127.0.0.1:%d", wmsPort))
	wfPath := filepath.Join(t.TempDir(), "wf.json")
	wf := fmt.Sprintf(`{
	  "name": "traceinv",
	  "blocks": [
	    {"id": "m", "type": "input", "name": "matrix"},
	    {"id": "inv", "type": "service", "service": "%s/services/maxima",
	     "params": {"expr": "invert(A)"}},
	    {"id": "tr", "type": "service", "service": "%s/services/maxima",
	     "params": {"expr": "trace(A)"}},
	    {"id": "out", "type": "output", "name": "trace"}
	  ],
	  "edges": [
	    {"from": {"block": "m", "port": "value"}, "to": {"block": "inv", "port": "A"}},
	    {"from": {"block": "inv", "port": "result"}, "to": {"block": "tr", "port": "A"}},
	    {"from": {"block": "tr", "port": "result"}, "to": {"block": "out", "port": "value"}}
	  ]
	}`, everest, everest)
	if err := os.WriteFile(wfPath, []byte(wf), 0o600); err != nil {
		t.Fatal(err)
	}
	out = runCLI(t, bins["mcctl"], "wf-save", wms, wfPath)
	if !strings.Contains(out, "traceinv") {
		t.Fatalf("wf-save output: %s", out)
	}
	out = runCLI(t, bins["mcctl"], "workflows", wms)
	if !strings.Contains(out, "traceinv") {
		t.Errorf("workflows list: %s", out)
	}
	// trace(inverse(identity(3))) = 3.
	out = runCLI(t, bins["mcctl"], "call", wms+"/services/traceinv",
		`{"matrix": [["1","0","0"],["0","1","0"],["0","0","1"]]}`)
	if !strings.Contains(out, `"trace": "3"`) {
		t.Errorf("composite call = %s, want trace 3", out)
	}

	// File upload / fetch round trip.
	dataPath := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(dataPath, []byte("file payload"), 0o600); err != nil {
		t.Fatal(err)
	}
	ref := strings.TrimSpace(runCLI(t, bins["mcctl"], "upload", everest, dataPath))
	out = runCLI(t, bins["mcctl"], "fetch", ref)
	if out != "file payload" {
		t.Errorf("fetch = %q", out)
	}

	// Observability: every started binary serves /metrics; the exposition
	// must be well-formed Prometheus text format and, on the container that
	// executed jobs, reflect the job lifecycle families.
	for _, base := range []string{everest, catalogueURL, wms} {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET %s/metrics: %v", base, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics = %d (%v)", base, resp.StatusCode, err)
		}
		if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
			t.Errorf("%s/metrics is malformed: %v\n%s", base, err, body)
		}
		if base == everest {
			for _, family := range []string{
				"mc_http_requests_total", "mc_jobs_submitted_total",
				"mc_job_queue_wait_seconds_bucket", "mc_job_run_seconds_bucket",
			} {
				if !strings.Contains(string(body), family) {
					t.Errorf("everest /metrics lacks %s", family)
				}
			}
		}
	}
}
