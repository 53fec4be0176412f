package gateway_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
)

// Exact exchange counts of 64 library submits through a two-replica
// gateway that polls load (so it may grant spread leases).  The counts are
// exact integers: a change may lower one in the change that earns it, and
// never raises one to pass.
const counterSubmits = 64

// exchangeCounts tallies what a recorder saw of the submits to one service
// path: the exchanges the gateway answered and the 307s among them.
type exchangeCounts struct {
	gateway, redirects int
}

func countExchanges(rec *recorder, gwHost, path string) exchangeCounts {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var n exchangeCounts
	for _, h := range rec.hops {
		if h.method != http.MethodPost || h.path != path || h.host != gwHost {
			continue
		}
		n.gateway++
		if h.status == http.StatusTemporaryRedirect {
			n.redirects++
		}
	}
	return n
}

// TestExchangeCountNonDeterministicLeased: a non-deterministic service
// costs the gateway one submit per lease, the 307 that grants it, and the
// leased round-robin continues the gateway's own, so the replicas split
// the jobs 32/32.
func TestExchangeCountNonDeterministicLeased(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	api, rec := routedClient()
	svc := api.Service(gw.URL + "/services/add")
	perReplica := map[string]int{}
	for i := 0; i < counterSubmits; i++ {
		job := submitDone(t, svc, core.Values{"a": float64(i)})
		name, _ := client.ReplicaOf(job.ID)
		perReplica[name]++
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/services/add"); got != (exchangeCounts{gateway: 1, redirects: 1}) {
		t.Fatalf("gateway answered %d submits (%d redirects), want exactly 1, the 307 that granted the lease", got.gateway, got.redirects)
	}
	if perReplica["r01"] != counterSubmits/2 || perReplica["r02"] != counterSubmits/2 {
		t.Fatalf("jobs per replica %v, want exactly 32/32", perReplica)
	}
}

// TestExchangeCountDeterministicRedirects: a deterministic service is never
// leased: each of 64 submits takes its 307, and identical inputs still
// meet on their digest home.
func TestExchangeCountDeterministicRedirects(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "addd", "gwtest.add", true))
	r2 := startReplica(t, "r02", numService(t, "addd", "gwtest.add", true))
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	api, rec := routedClient()
	svc := api.Service(gw.URL + "/services/addd")
	home := map[float64]string{}
	perReplica := map[string]int{}
	for i := 0; i < counterSubmits; i++ {
		a := float64(i % (counterSubmits / 2))
		job := submitDone(t, svc, core.Values{"a": a})
		name, _ := client.ReplicaOf(job.ID)
		perReplica[name]++
		if h, ok := home[a]; ok && h != name {
			t.Fatalf("submission %d of a=%v landed on %s, its twin on %s: not on one digest home", i, a, name, h)
		}
		home[a] = name
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/services/addd"); got != (exchangeCounts{gateway: counterSubmits, redirects: counterSubmits}) {
		t.Fatalf("gateway answered %d submits (%d redirects), want exactly 64 redirects", got.gateway, got.redirects)
	}
	if perReplica["r01"] == 0 || perReplica["r02"] == 0 {
		t.Fatalf("jobs per replica %v: distinct inputs should have homes on both replicas", perReplica)
	}
}

// TestExchangeCountFileInputsLeased: a submission referencing a file is
// placed afresh, so its 307 grants a lease too, and the client places the
// rest itself by the gateway's locality rule: 64 submits cost the gateway
// one exchange, and each job still runs on its file's owner.
func TestExchangeCountFileInputsLeased(t *testing.T) {
	var calls atomic.Int64
	fileSvc := fileLenService(t, &calls)
	r1 := startReplica(t, "r01", fileSvc)
	r2 := startReplica(t, "r02", fileSvc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	api, rec := routedClient()
	ctx := context.Background()
	var refs []string
	owners := map[string]bool{}
	for i := 0; i < 2; i++ {
		ref, err := api.UploadFile(ctx, gw.URL, bytes.NewReader(bytes.Repeat([]byte{'x'}, 100+i)))
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		owners[mustReplicaOf(t, ref)] = true
		refs = append(refs, ref)
	}
	if len(owners) != 2 {
		t.Fatalf("uploads landed on %v, want one on each replica", owners)
	}
	svc := api.Service(gw.URL + "/services/flen")
	for i := 0; i < counterSubmits; i++ {
		ref := refs[(i/3)%2] // runs of three, which the lease's cursor alone misses
		job := submitDone(t, svc, core.Values{"f": ref})
		if got, want := mustReplicaOf(t, job.ID), mustReplicaOf(t, ref); got != want {
			t.Fatalf("job %d ran on %s, its input lives on %s", i, got, want)
		}
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/services/flen"); got != (exchangeCounts{gateway: 1, redirects: 1}) {
		t.Fatalf("gateway answered %d submits (%d redirects), want exactly 1, the 307 that granted the lease", got.gateway, got.redirects)
	}
}

// TestExchangeCountUploadsLeased: the 307 of a routed upload grants the
// uploads' lease, so 64 uploads cost the gateway one exchange, and the
// leased round-robin continues the gateway's upload cursor: 32/32.
func TestExchangeCountUploadsLeased(t *testing.T) {
	var calls atomic.Int64
	fileSvc := fileLenService(t, &calls)
	r1 := startReplica(t, "r01", fileSvc)
	r2 := startReplica(t, "r02", fileSvc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	api, rec := routedClient()
	perReplica := map[string]int{}
	for i := 0; i < counterSubmits; i++ {
		ref, err := api.UploadFile(context.Background(), gw.URL, bytes.NewReader(bytes.Repeat([]byte{byte(i)}, 1000)))
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		perReplica[mustReplicaOf(t, ref)]++
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/files"); got != (exchangeCounts{gateway: 1, redirects: 1}) {
		t.Fatalf("gateway answered %d uploads (%d redirects), want exactly 1, the 307 that granted the lease", got.gateway, got.redirects)
	}
	if perReplica["r01"] != counterSubmits/2 || perReplica["r02"] != counterSubmits/2 {
		t.Fatalf("uploads per replica %v, want exactly 32/32", perReplica)
	}
}

// TestExchangeCountUnrewindableUploadProxied: an upload from a reader the
// client cannot rewind could not follow a 307, so it is proxied, in
// exactly one exchange, even while the client holds the uploads' lease.
func TestExchangeCountUnrewindableUploadProxied(t *testing.T) {
	var calls atomic.Int64
	fileSvc := fileLenService(t, &calls)
	r1 := startReplica(t, "r01", fileSvc)
	r2 := startReplica(t, "r02", fileSvc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	api, rec := routedClient()
	ctx := context.Background()
	if _, err := api.UploadFile(ctx, gw.URL, bytes.NewReader([]byte("takes the lease"))); err != nil {
		t.Fatalf("rewindable upload: %v", err)
	}
	rec.mu.Lock()
	rec.hops = nil
	rec.mu.Unlock()
	payload := []byte("a stream read once")
	ref, err := api.UploadFile(ctx, gw.URL, struct{ io.Reader }{bytes.NewReader(payload)})
	if err != nil {
		t.Fatalf("unrewindable upload: %v", err)
	}
	if len(rec.hops) != 1 || rec.hops[0] != (hop{method: http.MethodPost, host: hostOf(gw.URL), path: "/files", status: http.StatusCreated}) {
		t.Fatalf("unrewindable upload took %+v, want exactly one proxied exchange with the gateway", rec.hops)
	}
	if got, err := api.FetchFile(ctx, ref); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("proxied upload reads back %q, %v; want %q", got, err, payload)
	}
}

// TestExchangeCountUnroutedProxied: a client without the route preference
// is proxied, 64 times, and spread 32/32; so are its 64 uploads.
func TestExchangeCountUnroutedProxied(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Hour}, r1, r2)
	rec := &recorder{}
	api := &client.Client{HTTP: &http.Client{
		Transport:     rec,
		CheckRedirect: func(*http.Request, []*http.Request) error { return nil },
	}}
	svc := api.Service(gw.URL + "/services/add")
	perReplica := map[string]int{}
	for i := 0; i < counterSubmits; i++ {
		job := submitDone(t, svc, core.Values{"a": float64(i)})
		perReplica[mustReplicaOf(t, job.ID)]++
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/services/add"); got != (exchangeCounts{gateway: counterSubmits}) {
		t.Fatalf("gateway answered %d submits (%d redirects), want exactly 64 proxied", got.gateway, got.redirects)
	}
	if rec.redirects() != 0 || len(rec.hops) != counterSubmits {
		t.Fatalf("%d exchanges, %d redirects; want 64 and none", len(rec.hops), rec.redirects())
	}
	if perReplica["r01"] != counterSubmits/2 || perReplica["r02"] != counterSubmits/2 {
		t.Fatalf("jobs per replica %v, want exactly 32/32", perReplica)
	}
	uploads := map[string]int{}
	for i := 0; i < counterSubmits; i++ {
		ref, err := api.UploadFile(context.Background(), gw.URL, bytes.NewReader([]byte{byte(i)}))
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		uploads[mustReplicaOf(t, ref)]++
	}
	if got := countExchanges(rec, hostOf(gw.URL), "/files"); got != (exchangeCounts{gateway: counterSubmits}) {
		t.Fatalf("gateway answered %d uploads (%d redirects), want exactly 64 proxied", got.gateway, got.redirects)
	}
	if uploads["r01"] != counterSubmits/2 || uploads["r02"] != counterSubmits/2 {
		t.Fatalf("uploads per replica %v, want exactly 32/32", uploads)
	}
}

// submitDone submits inputs with a wait window and fails t unless the job
// answers DONE.
func submitDone(t *testing.T, svc *client.Service, inputs core.Values) *core.Job {
	t.Helper()
	job, err := svc.Submit(context.Background(), inputs, 15*time.Second)
	if err != nil {
		t.Fatalf("submit %v: %v", inputs, err)
	}
	if job.State != core.StateDone {
		t.Fatalf("submit %v: state %s (%s), want DONE", inputs, job.State, job.Error)
	}
	return job
}

// mustReplicaOf returns the replica prefix of an ID or URI.
func mustReplicaOf(t *testing.T, idOrURI string) string {
	t.Helper()
	name, ok := client.ReplicaOf(idOrURI)
	if !ok {
		t.Fatalf("%s carries no replica prefix", idOrURI)
	}
	return name
}
