package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/jsonschema"
)

// TestSharedMemoIndexServesResubmissionAcrossGateways is the federation-wide
// result-reuse end-to-end check: a deterministic job computed through one
// gateway is answered from the holding replica's cache when an identical
// submission arrives at a DIFFERENT gateway instance, which routes it by the
// digest→replica mapping learned from the replicas' memo delta feeds.
func TestSharedMemoIndexServesResubmissionAcrossGateways(t *testing.T) {
	var calls atomic.Int64
	adapter.RegisterFunc("gwtest.fedmemo", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls.Add(1)
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
	r1 := startReplica(t, "r01", numService(t, "fadd", "gwtest.fedmemo", true))
	r2 := startReplica(t, "r02", numService(t, "fadd", "gwtest.fedmemo", true))
	_, gwA := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)

	inputs := core.Values{"a": 19.0, "b": 23.0}
	resp, job := postJSON(t, gwA.URL+"/services/fadd?wait=15s", inputs)
	if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
		t.Fatalf("first submit: status %d state %v", resp.StatusCode, job["state"])
	}
	holder := resp.Header.Get(container.ReplicaHeader)
	if calls.Load() != 1 {
		t.Fatalf("adapter ran %d times after first submit, want 1", calls.Load())
	}

	gwB := secondGateway(t, r1, r2)

	before := metricValue(t, gwB.URL, "mc_gateway_memo_index_hits_total")
	resp2, job2 := postJSON(t, gwB.URL+"/services/fadd?wait=15s", inputs)
	if resp2.StatusCode != http.StatusCreated || job2["state"] != "DONE" {
		t.Fatalf("resubmit via second gateway: status %d state %v", resp2.StatusCode, job2["state"])
	}
	if got := resp2.Header.Get(container.ReplicaHeader); got != holder {
		t.Fatalf("resubmission served by %q, cache lives on %q", got, holder)
	}
	if sum := job2["outputs"].(map[string]any)["sum"].(float64); sum != 42.0 {
		t.Fatalf("resubmission sum = %v", sum)
	}
	if calls.Load() != 1 {
		t.Fatalf("adapter ran %d times in total, want 1 (second submit must be a cache hit)", calls.Load())
	}
	if after := metricValue(t, gwB.URL, "mc_gateway_memo_index_hits_total"); after != before+1 {
		t.Fatalf("memo index hits %v -> %v, want +1", before, after)
	}
}

// TestConcurrentIdenticalSubmitsRunOnceAcrossGateways fires eight identical
// deterministic submissions at once, four through each of two independent
// gateways that have learned nothing about the key.  Both gateways compute
// the same digest home, so all eight meet in one replica's singleflight and
// the adapter runs exactly once.  The adapter holds its flight open until
// the other seven have coalesced onto it.
func TestConcurrentIdenticalSubmitsRunOnceAcrossGateways(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	var gwURL string
	coalescedBefore := 0.0
	ready := make(chan struct{}) // publishes the two variables above
	adapter.RegisterFunc("gwtest.meet", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls.Add(1)
		<-ready
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			// Both replicas share this process's metric registry, so the
			// gateway's /metrics sums them.
			if v, err := scrapeMetric(gwURL, "mc_memo_coalesced_total"); err == nil && v-coalescedBefore >= n-1 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		a, _ := in["a"].(float64)
		return core.Values{"sum": a}, nil
	})
	r1 := startReplica(t, "r01", numService(t, "meet", "gwtest.meet", true))
	r2 := startReplica(t, "r02", numService(t, "meet", "gwtest.meet", true))
	_, gwA := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)
	gwB := secondGateway(t, r1, r2)
	gwURL = gwA.URL
	coalescedBefore = metricValue(t, gwA.URL, "mc_memo_coalesced_total")
	close(ready)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		url := gwA.URL
		if i%2 == 1 {
			url = gwB.URL
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/services/meet?wait=30s", "application/json", strings.NewReader(`{"a": 42}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var job core.Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusCreated || job.State != core.StateDone {
				errs <- fmt.Errorf("submit via %s: status %d state %s", url, resp.StatusCode, job.State)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("adapter ran %d times for %d identical submissions through two gateways, want 1", got, n)
	}
}

// secondGateway builds an independent gateway over replicas that already
// serve another one: fresh process state, memo index pulled once
// from the replicas' feeds.  It must NOT reset the replicas' base URLs (that
// would wipe their memo caches), so it is built without startGateway.
func secondGateway(t *testing.T, replicas ...*replica) *httptest.Server {
	t.Helper()
	opts := gateway.Options{PingInterval: -1, LoadInterval: -1, Logger: quietLogger()}
	for _, r := range replicas {
		opts.Replicas = append(opts.Replicas, gateway.Replica{Name: r.name, BaseURL: r.srv.URL})
	}
	g, err := gateway.New(opts)
	if err != nil {
		t.Fatalf("second gateway: %v", err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	g.RefreshLoad(context.Background()) // pull the memo index feeds
	return srv
}

// TestSharedMemoIndexKeyAppliesInputDefaults pins the gateway's memo key to
// the replica's: the replica hashes the inputs AFTER applying the service's
// declared defaults, so a client that omits a defaulted input must still be
// routed by the shared index — from a gateway that never saw the first
// submission.
func TestSharedMemoIndexKeyAppliesInputDefaults(t *testing.T) {
	var calls atomic.Int64
	adapter.RegisterFunc("gwtest.defmemo", func(ctx context.Context, in core.Values) (core.Values, error) {
		calls.Add(1)
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		return core.Values{"sum": a + b}, nil
	})
	svc := numService(t, "dadd", "gwtest.defmemo", true)
	withDefault := jsonschema.New(jsonschema.TypeNumber)
	withDefault.Default, withDefault.HasDefault = 23.0, true
	svc.Description.Inputs[1].Schema = withDefault
	r1 := startReplica(t, "r01", svc)
	r2 := startReplica(t, "r02", svc)
	_, gwA := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)

	inputs := core.Values{"a": 19.0} // b comes from the declared default
	resp, job := postJSON(t, gwA.URL+"/services/dadd?wait=15s", inputs)
	if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
		t.Fatalf("first submit: status %d state %v", resp.StatusCode, job["state"])
	}
	if sum := job["outputs"].(map[string]any)["sum"].(float64); sum != 42.0 {
		t.Fatalf("sum = %v, want 42 (default not applied)", sum)
	}
	holder := resp.Header.Get(container.ReplicaHeader)

	gwB := secondGateway(t, r1, r2)
	before := metricValue(t, gwB.URL, "mc_gateway_memo_index_hits_total")
	resp2, job2 := postJSON(t, gwB.URL+"/services/dadd?wait=15s", inputs)
	if resp2.StatusCode != http.StatusCreated || job2["state"] != "DONE" {
		t.Fatalf("resubmit: status %d state %v", resp2.StatusCode, job2["state"])
	}
	if got := resp2.Header.Get(container.ReplicaHeader); got != holder {
		t.Fatalf("resubmit served by %q, cache lives on %q", got, holder)
	}
	if after := metricValue(t, gwB.URL, "mc_gateway_memo_index_hits_total"); after != before+1 {
		t.Fatalf("memo index hits %v -> %v, want +1", before, after)
	}
	if calls.Load() != 1 {
		t.Fatalf("adapter ran %d times in total, want 1", calls.Load())
	}
}

// TestCrossReplicaFileFetchTransfersBlobOnce pins the file plane half of
// federation reuse: a job placed on a replica that does not hold its input
// file pulls the blob from the owning replica exactly once, and every later
// consumer on that replica reads the local copy.
// fileLenService is a non-deterministic native service returning the length
// of its file input "f"; calls counts its executions.
func fileLenService(t *testing.T, calls *atomic.Int64) container.ServiceConfig {
	adapter.RegisterRequestFunc("gwtest.flen", func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		calls.Add(1)
		data, err := os.ReadFile(req.Files["f"])
		if err != nil {
			return nil, err
		}
		return &adapter.Result{Outputs: core.Values{"len": float64(len(data))}}, nil
	})
	return container.ServiceConfig{
		Description: core.ServiceDescription{
			Name: "flen", Version: "1",
			Inputs:  []core.Param{{Name: "f"}},
			Outputs: []core.Param{{Name: "len"}},
		},
		Adapter: container.AdapterSpec{
			Kind:   "native",
			Config: mustJSON(t, adapter.NativeConfig{Function: "gwtest.flen"}),
		},
	}
}

// TestJobsFollowTheirInputFiles is the input-locality end-to-end check: a
// client that uploads through the gateway and then submits through the
// gateway gets its job on the replica holding the upload, so no blob crosses
// replicas, while uploads — and with them jobs — still spread.
func TestJobsFollowTheirInputFiles(t *testing.T) {
	var calls atomic.Int64
	fileSvc := fileLenService(t, &calls)
	r1 := startReplica(t, "r01", fileSvc)
	r2 := startReplica(t, "r02", fileSvc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)

	fetchesBefore := metricValue(t, gw.URL, "mc_filestore_remote_fetch_total")
	const n = 8
	ran := make(map[string]int)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 1000+i)
		up, err := http.Post(gw.URL+"/files", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		var uploaded map[string]string
		err = json.NewDecoder(up.Body).Decode(&uploaded)
		up.Body.Close()
		if err != nil || up.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d: status %d, decode %v", i, up.StatusCode, err)
		}
		filePrefix, ok := core.SplitReplicaID(uploaded["id"])
		if !ok {
			t.Fatalf("upload %d: file ID %q carries no replica prefix", i, uploaded["id"])
		}
		// Alternate the two reference forms a client may send.
		ref := core.FileRef(uploaded["id"])
		if i%2 == 1 {
			ref = core.FileRef(uploaded["uri"])
		}
		resp, job := postJSON(t, gw.URL+"/services/flen?wait=15s", core.Values{"f": ref})
		if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
			t.Fatalf("job %d: status %d state %v (%v)", i, resp.StatusCode, job["state"], job["error"])
		}
		if got := job["outputs"].(map[string]any)["len"].(float64); got != float64(len(payload)) {
			t.Fatalf("job %d read %v bytes, want %d", i, got, len(payload))
		}
		jobPrefix, _ := core.SplitReplicaID(job["id"].(string))
		if jobPrefix != filePrefix {
			t.Fatalf("job %d ran on %q, its input %s lives on %q", i, jobPrefix, uploaded["id"], filePrefix)
		}
		ran[jobPrefix]++
	}
	if ran["r01"] == 0 || ran["r02"] == 0 {
		t.Fatalf("jobs per replica = %v, want both replicas to have run some", ran)
	}
	if calls.Load() != n {
		t.Fatalf("adapter ran %d times, want %d", calls.Load(), n)
	}
	if after := metricValue(t, gw.URL, "mc_filestore_remote_fetch_total"); after != fetchesBefore {
		t.Fatalf("remote fetches %v -> %v, want none: every job was placed on its data", fetchesBefore, after)
	}
}

func TestCrossReplicaFileFetchTransfersBlobOnce(t *testing.T) {
	var calls atomic.Int64
	fileSvc := fileLenService(t, &calls)
	r1 := startReplica(t, "r01", fileSvc)
	r2 := startReplica(t, "r02", fileSvc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)

	// Upload straight to r01, so the minted ID carries its prefix.
	payload := bytes.Repeat([]byte("foreign blob "), 777)
	up, err := http.Post(r1.srv.URL+"/files", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var uploaded map[string]string
	if err := json.NewDecoder(up.Body).Decode(&uploaded); err != nil {
		t.Fatalf("upload decode: %v", err)
	}
	up.Body.Close()
	fileID := uploaded["id"]
	if prefix, _ := core.SplitReplicaID(fileID); prefix != "r01" {
		t.Fatalf("file ID %q not minted on r01", fileID)
	}

	before := metricValue(t, gw.URL, "mc_filestore_remote_fetch_total")
	// Two jobs consuming the foreign file, both forced onto r02 by direct
	// submission (the service is non-deterministic, so both execute).
	for i := 0; i < 2; i++ {
		resp, job := postJSON(t, r2.srv.URL+"/services/flen?wait=15s",
			core.Values{"f": core.FileRef(fileID)})
		if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
			t.Fatalf("job %d on r02: status %d state %v (%v)", i, resp.StatusCode, job["state"], job["error"])
		}
		if n := job["outputs"].(map[string]any)["len"].(float64); n != float64(len(payload)) {
			t.Fatalf("job %d read %v bytes, want %d", i, n, len(payload))
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("adapter ran %d times, want 2", calls.Load())
	}
	after := metricValue(t, gw.URL, "mc_filestore_remote_fetch_total")
	if after != before+1 {
		t.Fatalf("remote fetches %v -> %v, want exactly one transfer for two consumers", before, after)
	}
	// The pulled blob is now local to r02 and readable there directly.
	dl, err := http.Get(r2.srv.URL + "/files/" + fileID)
	if err != nil {
		t.Fatalf("local read on r02: %v", err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("local read on r02: status %d", dl.StatusCode)
	}
}
