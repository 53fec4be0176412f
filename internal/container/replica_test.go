package container_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/jsonschema"
)

// startReplicaContainer runs a container with a replica identity and one
// "add" service.
func startReplicaContainer(t *testing.T, replica string) (*container.Container, *httptest.Server) {
	t.Helper()
	adapter.RegisterFunc("test.replica.add", func(ctx context.Context, in core.Values) (core.Values, error) {
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
	c, err := container.New(container.Options{
		Workers:   2,
		ReplicaID: replica,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	num := jsonschema.New(jsonschema.TypeNumber)
	cfg := container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:        "add",
			Title:       "add",
			Description: "replica test add",
			Inputs:      []core.Param{{Name: "a", Schema: num}, {Name: "b", Schema: num}},
			Outputs:     []core.Param{{Name: "sum", Schema: num}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "test.replica.add"}),
		},
	}
	if err := c.Deploy(cfg); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	c.SetBaseURL(srv.URL)
	return c, srv
}

func TestReplicaIDPrefixesMintedIDsAndHeader(t *testing.T) {
	_, srv := startReplicaContainer(t, "r07")

	// Job IDs carry the replica prefix; responses carry the identity header.
	resp, err := http.Post(srv.URL+"/services/add?wait=10s", "application/json",
		strings.NewReader(`{"a": 1, "b": 2}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var job core.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(core.ReplicaHeader); h != "r07" {
		t.Fatalf("%s header %q, want r07", core.ReplicaHeader, h)
	}
	if rep, ok := core.SplitReplicaID(job.ID); !ok || rep != "r07" {
		t.Fatalf("job ID %q lacks the replica prefix", job.ID)
	}
	if job.State != core.StateDone {
		t.Fatalf("job state %s", job.State)
	}

	// Index advertises the identity.
	iresp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	var index struct {
		Replica string `json:"replica"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&index); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	iresp.Body.Close()
	if index.Replica != "r07" {
		t.Fatalf("index replica %q, want r07", index.Replica)
	}
}

// TestSweepChildrenInheritSweepReplicaPrefix is the federation affinity
// regression: sweep IDs and every child job ID must carry the same replica
// prefix, so one affinity hop at the gateway serves the whole campaign.
func TestSweepChildrenInheritSweepReplicaPrefix(t *testing.T) {
	_, srv := startReplicaContainer(t, "r07")

	spec := core.SweepSpec{
		Template: core.Values{"b": 1},
		Axes:     map[string][]any{"a": {1, 2, 3}},
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/services/add/sweeps?wait=10s", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("sweep submit: %v", err)
	}
	var sweep core.Sweep
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		t.Fatalf("decode sweep: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep submit: status %d", resp.StatusCode)
	}
	rep, ok := core.SplitReplicaID(sweep.ID)
	if !ok || rep != "r07" {
		t.Fatalf("sweep ID %q lacks the replica prefix", sweep.ID)
	}

	jresp, err := http.Get(srv.URL + "/services/add/sweeps/" + sweep.ID + "/jobs")
	if err != nil {
		t.Fatalf("children: %v", err)
	}
	var page struct {
		Jobs []core.Job `json:"jobs"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&page); err != nil {
		t.Fatalf("decode children: %v", err)
	}
	jresp.Body.Close()
	if len(page.Jobs) != 3 {
		t.Fatalf("children: %d, want 3", len(page.Jobs))
	}
	for _, j := range page.Jobs {
		if crep, ok := core.SplitReplicaID(j.ID); !ok || crep != rep {
			t.Fatalf("child %q prefix != sweep prefix %q", j.ID, rep)
		}
	}
}

func TestReplicaIDPrefixesFileIDs(t *testing.T) {
	_, srv := startReplicaContainer(t, "r07")

	resp, err := http.Post(srv.URL+"/files", "application/octet-stream",
		strings.NewReader("replica file"))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var up map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if rep, ok := core.SplitReplicaID(up["id"]); !ok || rep != "r07" {
		t.Fatalf("file ID %q lacks the replica prefix", up["id"])
	}
	// The prefixed ID must pass the file-ID gate on the read path.
	dresp, err := http.Get(srv.URL + "/files/" + up["id"])
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d", dresp.StatusCode)
	}
}

func TestInvalidReplicaIDRejected(t *testing.T) {
	for _, bad := range []string{"R07", "has-dash", "waytoolongreplicaname", "é"} {
		if _, err := container.New(container.Options{ReplicaID: bad, Logger: quietLogger()}); err == nil {
			t.Fatalf("ReplicaID %q accepted, want error", bad)
		}
	}
}
