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

// TestDigestHomeServesResubmissionAcrossGateways is the federation-wide
// result-reuse end-to-end check: a deterministic job computed through one
// gateway is answered from the holding replica's cache when an identical
// submission arrives at a DIFFERENT gateway instance, which computes the
// same digest home with no state shared between the two.
func TestDigestHomeServesResubmissionAcrossGateways(t *testing.T) {
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
	holder := resp.Header.Get(core.ReplicaHeader)
	if calls.Load() != 1 {
		t.Fatalf("adapter ran %d times after first submit, want 1", calls.Load())
	}

	gwB := secondGateway(t, r1, r2)
	resp2, job2 := postJSON(t, gwB.URL+"/services/fadd?wait=15s", inputs)
	if resp2.StatusCode != http.StatusCreated || job2["state"] != "DONE" {
		t.Fatalf("resubmit via second gateway: status %d state %v", resp2.StatusCode, job2["state"])
	}
	if got := resp2.Header.Get(core.ReplicaHeader); got != holder {
		t.Fatalf("resubmission served by %q, cache lives on %q", got, holder)
	}
	if sum := job2["outputs"].(map[string]any)["sum"].(float64); sum != 42.0 {
		t.Fatalf("resubmission sum = %v", sum)
	}
	if calls.Load() != 1 {
		t.Fatalf("adapter ran %d times in total, want 1 (second submit must be a cache hit)", calls.Load())
	}
}

// TestConcurrentIdenticalSubmitsRunOnceAcrossGateways fires eight identical
// deterministic submissions at once, four through each of two independent
// gateways that have learned nothing about the key.  Both gateways compute
// the same digest home, so all eight meet in one replica's singleflight and
// the adapter runs exactly once.  The adapter holds its flight open until
// the other seven have coalesced onto it.
func TestConcurrentIdenticalSubmitsRunOnceAcrossGateways(t *testing.T) {
	identicalSubmitsRunOnce(t, "gwtest.meet", false)
}

// TestConcurrentIdenticalSubmitsRunOnceWhenRouted is the same race with
// half the copies sent by a routed library client: the gateways redirect
// those to the digest home instead of proxying them, and the key still
// costs one execution.
func TestConcurrentIdenticalSubmitsRunOnceWhenRouted(t *testing.T) {
	identicalSubmitsRunOnce(t, "gwtest.meetrouted", true)
}

func identicalSubmitsRunOnce(t *testing.T, fn string, routed bool) {
	const n = 8
	var calls atomic.Int64
	var gwURL string
	coalescedBefore := 0.0
	ready := make(chan struct{}) // publishes the two variables above
	adapter.RegisterFunc(fn, func(ctx context.Context, in core.Values) (core.Values, error) {
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
	r1 := startReplica(t, "r01", numService(t, "meet", fn, true))
	r2 := startReplica(t, "r02", numService(t, "meet", fn, true))
	_, gwA := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)
	gwB := secondGateway(t, r1, r2)
	gwURL = gwA.URL
	coalescedBefore = metricValue(t, gwA.URL, "mc_memo_coalesced_total")
	close(ready)

	api, rec := routedClient()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		url := gwA.URL
		if i%2 == 1 {
			url = gwB.URL
		}
		wg.Add(1)
		if routed && i/2%2 == 1 {
			go func() {
				defer wg.Done()
				job, err := api.Service(url+"/services/meet").Submit(context.Background(), core.Values{"a": 42}, 30*time.Second)
				if err == nil && job.State != core.StateDone {
					err = fmt.Errorf("routed submit via %s: state %s", url, job.State)
				}
				if err != nil {
					errs <- err
				}
			}()
			continue
		}
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
	if routed && rec.redirects() != n/2 {
		t.Errorf("routed copies took %d redirects, want %d", rec.redirects(), n/2)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("adapter ran %d times for %d identical submissions through two gateways, want 1", got, n)
	}
}

// secondGateway builds an independent gateway over replicas that already
// serve another one: fresh process state, nothing learned from the first.
// It must NOT reset the replicas' base URLs (that would wipe their memo
// caches), so it is built without startGateway.
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
	return srv
}

// TestDigestHomeKeyAppliesInputDefaults pins the gateway's routing key to
// the replica's memo key: the replica hashes the inputs AFTER applying the
// service's declared defaults, so a resubmission that omits a defaulted
// input must reach the home of the first submission, which spelled it out —
// through a gateway that never saw that submission.  Several inputs are
// used so that at least one key's home moves if the gateway hashed the
// inputs as sent.
func TestDigestHomeKeyAppliesInputDefaults(t *testing.T) {
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

	const n = 16
	holders := make([]string, n)
	for i := range holders {
		a := float64(i)
		resp, job := postJSON(t, gwA.URL+"/services/dadd?wait=15s", core.Values{"a": a, "b": 23.0})
		if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
			t.Fatalf("first submit a=%v: status %d state %v", a, resp.StatusCode, job["state"])
		}
		holders[i] = resp.Header.Get(core.ReplicaHeader)
	}
	if calls.Load() != n {
		t.Fatalf("adapter ran %d times for %d distinct inputs", calls.Load(), n)
	}

	gwB := secondGateway(t, r1, r2)
	for i, holder := range holders {
		a := float64(i)
		resp, job := postJSON(t, gwB.URL+"/services/dadd?wait=15s", core.Values{"a": a}) // b from the default
		if resp.StatusCode != http.StatusCreated || job["state"] != "DONE" {
			t.Fatalf("resubmit a=%v: status %d state %v", a, resp.StatusCode, job["state"])
		}
		if sum := job["outputs"].(map[string]any)["sum"].(float64); sum != a+23 {
			t.Fatalf("resubmit a=%v: sum = %v, want %v (default not applied)", a, sum, a+23)
		}
		if got := resp.Header.Get(core.ReplicaHeader); got != holder {
			t.Fatalf("resubmit a=%v served by %q, cache lives on %q", a, got, holder)
		}
	}
	if calls.Load() != n {
		t.Fatalf("adapter ran %d times in total, want %d (every resubmit must be a cache hit)", calls.Load(), n)
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
