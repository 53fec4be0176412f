package cmd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCrashRecoverySweep is the durability e2e: everest with a write-ahead
// journal accepts a width-64 sweep and is stopped mid-campaign, and a fresh
// process on the same -data-dir must finish every accepted child with zero
// losses.  It runs once per way to stop a server: SIGKILL (no shutdown
// hooks, exactly what the WAL must survive) and SIGTERM, which must exit 0
// and, not being a client cancel, must leave no child CANCELLED or ERROR.
func TestCrashRecoverySweep(t *testing.T) {
	bin := buildBinaries(t, "everest")["everest"]

	// One command service run as batch jobs on a two-slot cluster: each child
	// sleeps long enough that the kill lands with most of the campaign
	// non-terminal, and most of the eight workers wait on batch jobs still
	// queued in the cluster.  Closing the cluster before the container would
	// fail those children while the journal is still open.
	cfgPath := filepath.Join(t.TempDir(), "services.json")
	cfg := `{
	  "clusters": [{"name": "local", "nodes": [{"name": "n1", "slots": 2}]}],
	  "services": [{
	    "description": {
	      "name": "slowsum",
	      "inputs":  [{"name": "a"}, {"name": "b"}],
	      "outputs": [{"name": "sum"}]
	    },
	    "adapter": {
	      "kind": "cluster",
	      "config": {
	        "cluster": "local",
	        "exec": {"kind": "command", "config": {
	          "command": "/bin/sh",
	          "args": ["-c", "sleep 0.1; printf '{{\"sum\": %d}}' $(( {a} + {b} ))"],
	          "stdoutJSON": true
	        }}
	      }
	    }
	  }]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sig  syscall.Signal
	}{{"SIGKILL", syscall.SIGKILL}, {"SIGTERM", syscall.SIGTERM}} {
		t.Run(tc.name, func(t *testing.T) { stopAndRecoverSweep(t, bin, cfgPath, tc.sig) })
	}
}

// stopAndRecoverSweep runs one stop-and-restart round of
// TestCrashRecoverySweep.
func stopAndRecoverSweep(t *testing.T, bin, cfgPath string, sig syscall.Signal) {
	dataDir := t.TempDir()
	proc, base := startServer(t, bin, freePort(t),
		"-config", cfgPath, "-data-dir", dataDir, "-wal-sync", "batch", "-workers", "8")

	const width = 64
	axis := make([]int, width)
	for i := range axis {
		axis[i] = i
	}
	spec := map[string]any{
		"template": map[string]any{"a": 1000},
		"axes":     map[string]any{"b": axis},
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/services/slowsum/sweeps", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sweep struct {
		ID    string `json:"id"`
		Width int    `json:"width"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit = %d", resp.StatusCode)
	}
	if sweep.Width != width {
		t.Fatalf("accepted width = %d, want %d", sweep.Width, width)
	}

	// Let part of the campaign run, then stop the server.
	time.Sleep(500 * time.Millisecond)
	if sig == syscall.SIGKILL {
		if err := proc.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = proc.Wait()
	} else {
		stopServer(t, proc, sig)
	}

	_, base2 := startServer(t, bin, freePort(t),
		"-config", cfgPath, "-data-dir", dataDir, "-wal-sync", "batch", "-workers", "8")

	// Every accepted child must reach a terminal state; none may be lost.
	sweepURL := base2 + "/services/slowsum/sweeps/" + sweep.ID
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(sweepURL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("sweep lost across restart: GET = %d\n%s", resp.StatusCode, body)
		}
		var got struct {
			State  string `json:"state"`
			Width  int    `json:"width"`
			Counts struct {
				Waiting   int `json:"waiting"`
				Running   int `json:"running"`
				Done      int `json:"done"`
				Error     int `json:"error"`
				Cancelled int `json:"cancelled"`
			} `json:"counts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.Width != width {
			t.Fatalf("restored width = %d, want %d", got.Width, width)
		}
		terminal := got.Counts.Done + got.Counts.Error + got.Counts.Cancelled
		if got.State != "RUNNING" {
			if terminal != width {
				t.Fatalf("terminal children = %d of %d (counts %+v)", terminal, width, got.Counts)
			}
			if got.State != "DONE" || got.Counts.Done != width || got.Counts.Cancelled != 0 {
				t.Fatalf("sweep after recovery = %s counts %+v, want DONE with all %d done, none failed or cancelled",
					got.State, got.Counts, width)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished after restart: %s counts %+v", got.State, got.Counts)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The replay counters prove the second process actually recovered state
	// rather than starting empty.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, family := range []string{"mc_recovery_replayed_total", "mc_wal_appends_total"} {
		if !strings.Contains(metrics, family) {
			t.Errorf("restarted everest /metrics lacks %s", family)
		}
	}
	if !strings.Contains(metrics, `mc_recovery_replayed_total{kind="sweep"}`) {
		t.Errorf("no sweep records replayed; metrics:\n%s", metrics)
	}
}

// TestGracefulShutdown stops each server the way an operator does and
// requires a clean exit that leaves nothing behind: everest removes its
// temporary data directory, the catalogue keeps its registrations in the
// journal, and mcgw closes its probes and event pumps.
func TestGracefulShutdown(t *testing.T) {
	bins := buildBinaries(t, "everest", "catalogue", "mcgw")
	gwPort := freePort(t)
	_, replica := startServer(t, bins["everest"], freePort(t), "-builtin",
		"-replica", "r01", "-base-url", fmt.Sprintf("http://127.0.0.1:%d", gwPort))

	t.Run("everest_SIGINT_removes_temp_data", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		proc, _ := startServer(t, bins["everest"], freePort(t), "-builtin")
		pattern := filepath.Join(tmp, "everest-*")
		if dirs, _ := filepath.Glob(pattern); len(dirs) != 1 {
			t.Fatalf("temporary data directories under TMPDIR = %v, want one", dirs)
		}
		stopServer(t, proc, os.Interrupt)
		if dirs, _ := filepath.Glob(pattern); len(dirs) != 0 {
			t.Fatalf("SIGINT leaked %v", dirs)
		}
	})

	t.Run("everest_SIGTERM_flushes_request_log", func(t *testing.T) {
		// Request records are buffered; the last one before the signal must
		// still reach stderr, written out by the shutdown flush.
		var logOut bytes.Buffer
		proc, base := startServerLog(t, bins["everest"], freePort(t), &logOut, "-builtin")
		const path = "/services/maxima/jobs/last-before-sigterm"
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		stopServer(t, proc, syscall.SIGTERM)
		found := false
		for _, line := range strings.Split(logOut.String(), "\n") {
			if strings.Contains(line, `msg="http request"`) && strings.Contains(line, "path="+path+" ") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no http request record for %s in the log:\n%s", path, logOut.String())
		}
	})

	t.Run("catalogue_SIGTERM_keeps_registrations", func(t *testing.T) {
		dataDir := t.TempDir()
		proc, cat := startServer(t, bins["catalogue"], freePort(t), "-ping", "0", "-data-dir", dataDir)
		resp, err := http.Post(cat+"/services", "application/json",
			strings.NewReader(fmt.Sprintf(`{"uri": %q, "tags": ["cas"]}`, replica+"/services/maxima")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("register = %d", resp.StatusCode)
		}
		stopServer(t, proc, syscall.SIGTERM)

		_, cat = startServer(t, bins["catalogue"], freePort(t), "-ping", "0", "-data-dir", dataDir)
		resp, err = http.Get(cat + "/services")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), replica+"/services/maxima") {
			t.Fatalf("registration lost across SIGTERM: %s", body)
		}
	})

	t.Run("mcgw_SIGTERM", func(t *testing.T) {
		proc, _ := startServer(t, bins["mcgw"], gwPort, "-replicas", "r01="+replica,
			"-ping-interval", "200ms", "-load-interval", "200ms")
		stopServer(t, proc, syscall.SIGTERM)
	})
}
