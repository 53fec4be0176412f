package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/rest"
)

// hop is one HTTP exchange a recorder saw.
type hop struct {
	method, host, path string
	prefer             string
	status             int
}

// recorder is an http.RoundTripper that records every exchange it carries,
// redirect hops included, over next (nil: http.DefaultTransport).
type recorder struct {
	next http.RoundTripper
	mu   sync.Mutex
	hops []hop
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	next := r.next
	if next == nil {
		next = http.DefaultTransport
	}
	resp, err := next.RoundTrip(req)
	h := hop{method: req.Method, host: req.URL.Host, path: req.URL.Path, prefer: req.Header.Get("Prefer")}
	if err == nil {
		h.status = resp.StatusCode
	}
	r.mu.Lock()
	r.hops = append(r.hops, h)
	r.mu.Unlock()
	return resp, err
}

// last returns the most recent exchange.
func (r *recorder) last() hop {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hops[len(r.hops)-1]
}

// redirects counts the 307 answers seen.
func (r *recorder) redirects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.hops {
		if h.status == http.StatusTemporaryRedirect {
			n++
		}
	}
	return n
}

// routedClient is a library client over a recorder: it follows redirects
// and carries no credentials, so it is routed.
func routedClient() (*client.Client, *recorder) {
	rec := &recorder{}
	return &client.Client{HTTP: &http.Client{Transport: rec}}, rec
}

// redirectsCounted sums the 3xx class of mc_gateway_requests_total.
func redirectsCounted(t *testing.T, gwURL string) float64 {
	t.Helper()
	resp, err := http.Get(gwURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	total := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "mc_gateway_requests_total{") && strings.Contains(line, `code="3xx"`) {
			if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// rawDo is the raw no-preference client: one request, no redirect followed.
func rawDo(t *testing.T, method, uri string, body []byte, header ...string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, uri, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, uri, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// decode unmarshals a raw answer into a T.
func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return v
}

// twinJob clears what differs between two jobs made by identical requests.
func twinJob(j core.Job) core.Job {
	j.ID, j.URI, j.TraceID = "", "", ""
	j.Created, j.Submitted, j.Started, j.Finished, j.Destruction = time.Time{}, time.Time{}, time.Time{}, time.Time{}, time.Time{}
	j.QueueWait, j.RunTime = 0, 0
	return j
}

// twinSweep is twinJob for sweeps.
func twinSweep(s core.Sweep) core.Sweep {
	s.ID, s.URI, s.JobsURI, s.TraceID = "", "", "", ""
	s.Created, s.Finished, s.Destruction = time.Time{}, time.Time{}, time.Time{}
	return s
}

func mustEqual[T any](t *testing.T, what string, routed, proxied T) {
	t.Helper()
	if !reflect.DeepEqual(routed, proxied) {
		t.Fatalf("%s: routed answer differs from proxied\nrouted:  %+v\nproxied: %+v", what, routed, proxied)
	}
}

// TestRoutedClientMatchesProxiedAnswers drives the same operations through
// a two-replica gateway twice: with a routed library client, which the
// gateway answers with redirects and which then talks to replicas
// directly, and with a raw client that asks for nothing and is proxied.
// Every status and decoded body must agree, and the gateway must count
// exactly the redirects the routed client took.
func TestRoutedClientMatchesProxiedAnswers(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{LoadInterval: time.Minute}, r1, r2)
	replicaHosts := map[string]bool{hostOf(r1.srv.URL): true, hostOf(r2.srv.URL): true}
	hostOfReplica := map[string]string{"r01": hostOf(r1.srv.URL), "r02": hostOf(r2.srv.URL)}
	ctx := context.Background()
	redirectsBefore := redirectsCounted(t, gw.URL)
	api, rec := routedClient()
	svc := api.Service(gw.URL + "/services/add")

	// Submit ?wait=: twin jobs from identical requests.
	in := core.Values{"a": 2.0, "b": 3.0}
	jobR, err := svc.Submit(ctx, in, 15*time.Second)
	if err != nil {
		t.Fatalf("routed submit: %v", err)
	}
	if h := rec.last(); h.status != http.StatusCreated || !replicaHosts[h.host] {
		t.Fatalf("routed submit answered %d by %s, want 201 from a replica", h.status, h.host)
	}
	status, data := rawDo(t, http.MethodPost, gw.URL+"/services/add?wait=15s", mustJSON(t, in))
	if status != http.StatusCreated {
		t.Fatalf("proxied submit: status %d", status)
	}
	jobP := decode[core.Job](t, data)
	mustEqual(t, "submit", twinJob(*jobR), twinJob(jobP))
	if !strings.HasPrefix(jobR.URI, gw.URL+"/") {
		t.Fatalf("routed job URI %s does not name the gateway", jobR.URI)
	}
	name, _ := client.ReplicaOf(jobR.ID)

	// The submit's 307 granted a spread lease: the next submit goes straight
	// to the other replica, in one exchange, and answers as the proxied one.
	hopsBefore := len(rec.hops)
	jobL, err := svc.Submit(ctx, in, 15*time.Second)
	if err != nil {
		t.Fatalf("leased submit: %v", err)
	}
	leasedTo, _ := client.ReplicaOf(jobL.ID)
	if h := rec.last(); len(rec.hops) != hopsBefore+1 || h.status != http.StatusCreated || h.host != hostOfReplica[leasedTo] || h.prefer != "" || leasedTo == name {
		t.Fatalf("leased submit took %d hops, the last answered %d by %s (Prefer %q); want one hop to the replica after %s",
			len(rec.hops)-hopsBefore, h.status, h.host, h.prefer, name)
	}
	mustEqual(t, "leased submit", twinJob(*jobL), twinJob(jobP))

	// GET job and long-poll GET ?wait= of the same job: identical bodies,
	// and the routed reads go straight to the replica the submit redirect
	// taught the client.
	hopsBefore = len(rec.hops)
	got, err := svc.Job(ctx, jobR.URI)
	if err != nil {
		t.Fatalf("routed GET: %v", err)
	}
	if h := rec.last(); len(rec.hops) != hopsBefore+1 || h.status != http.StatusOK || h.host != hostOfReplica[name] || h.prefer != "" {
		t.Fatalf("routed GET went to %s (status %d, Prefer %q), want one hop on the cached route to %s", h.host, h.status, h.prefer, name)
	}
	status, data = rawDo(t, http.MethodGet, jobR.URI, nil)
	if status != http.StatusOK {
		t.Fatalf("proxied GET: status %d", status)
	}
	mustEqual(t, "GET job", *got, decode[core.Job](t, data))
	got, err = svc.Wait(ctx, jobR.URI)
	if err != nil {
		t.Fatalf("routed long-poll: %v", err)
	}
	status, data = rawDo(t, http.MethodGet, jobR.URI+"?wait=5s", nil)
	if status != http.StatusOK {
		t.Fatalf("proxied long-poll: status %d", status)
	}
	mustEqual(t, "long-poll GET", *got, decode[core.Job](t, data))

	// Sweep submit, child page and delete.
	spec := core.SweepSpec{Template: core.Values{"b": 10.0}, Axes: map[string][]any{"a": {1.0, 2.0, 3.0}}}
	takenBefore := rec.redirects()
	sweepR, err := svc.SubmitSweep(ctx, &spec, 15*time.Second)
	if err != nil {
		t.Fatalf("routed sweep submit: %v", err)
	}
	if h := rec.last(); h.status != http.StatusCreated || rec.redirects() != takenBefore+1 {
		t.Fatalf("routed sweep submit: status %d after %d redirects, want one 307 (sweeps take no lease)", h.status, rec.redirects()-takenBefore)
	}
	status, data = rawDo(t, http.MethodPost, gw.URL+"/services/add/sweeps?wait=15s", mustJSON(t, spec))
	if status != http.StatusCreated {
		t.Fatalf("proxied sweep submit: status %d", status)
	}
	sweepP := decode[core.Sweep](t, data)
	mustEqual(t, "sweep submit", twinSweep(*sweepR), twinSweep(sweepP))
	children, total, err := svc.SweepJobs(ctx, sweepR.URI, "", 2, 1)
	if err != nil {
		t.Fatalf("routed child page: %v", err)
	}
	status, data = rawDo(t, http.MethodGet, sweepR.URI+"/jobs?limit=2&offset=1", nil)
	if status != http.StatusOK {
		t.Fatalf("proxied child page: status %d", status)
	}
	page := decode[struct {
		Jobs  []*core.Job `json:"jobs"`
		Total int         `json:"total"`
	}](t, data)
	mustEqual(t, "child page", children, page.Jobs)
	mustEqual(t, "child total", total, page.Total)
	delR, err := svc.CancelSweep(ctx, sweepR.URI)
	if err != nil {
		t.Fatalf("routed sweep delete: %v", err)
	}
	status, data = rawDo(t, http.MethodDelete, sweepP.URI, nil)
	if status != http.StatusOK {
		t.Fatalf("proxied sweep delete: status %d", status)
	}
	mustEqual(t, "sweep delete", twinSweep(*delR), twinSweep(decode[core.Sweep](t, data)))

	// DELETE job: each client deletes its twin.
	cancelled, err := svc.Cancel(ctx, jobR.URI)
	if err != nil {
		t.Fatalf("routed DELETE: %v", err)
	}
	status, data = rawDo(t, http.MethodDelete, jobP.URI, nil)
	if status != http.StatusOK {
		t.Fatalf("proxied DELETE: status %d", status)
	}
	mustEqual(t, "DELETE job", twinJob(*cancelled), twinJob(decode[core.Job](t, data)))

	// An upload asking for a route gets a 307 granting the uploads' lease,
	// and is answered by the replica as a proxied upload is, up to the ID.
	payload := []byte("0123456789 routed or proxied, the bytes are the same")
	req, _ := http.NewRequest(http.MethodPost, gw.URL+"/files", bytes.NewReader(payload))
	req.Header.Set("Prefer", core.RoutePreference)
	resp, err := api.HTTP.Do(req)
	if err != nil {
		t.Fatalf("routed upload: %v", err)
	}
	routedBody := readAll(t, resp)
	upR := decode[struct{ ID, URI, Ref string }](t, routedBody)
	redirect := resp.Request.Response
	if resp.StatusCode != http.StatusCreated || redirect == nil || redirect.StatusCode != http.StatusTemporaryRedirect ||
		redirect.Header.Get("Preference-Applied") != core.RoutePreference || !replicaHosts[hostOf(resp.Request.URL.String())] {
		t.Fatalf("routed upload: status %d from %s, want a 307 with Preference-Applied, then 201 from a replica", resp.StatusCode, resp.Request.URL)
	}
	lease, err := core.ParseSpreadLease(redirect.Header.Get(core.SpreadLeaseHeader))
	if err != nil || lease.For != time.Minute || len(lease.Replicas) != 2 {
		t.Fatalf("routed upload's 307 leased %+v, %v; want both replicas for the load interval", lease, err)
	}
	status, data = rawDo(t, http.MethodPost, gw.URL+"/files", payload)
	up := decode[struct{ ID, URI, Ref string }](t, data)
	if status != http.StatusCreated || up.ID == upR.ID {
		t.Fatalf("proxied upload: status %d, ID %s (routed %s)", status, up.ID, upR.ID)
	}
	mustEqual(t, "upload", strings.ReplaceAll(string(routedBody), upR.ID, "<id>"), strings.ReplaceAll(string(data), up.ID, "<id>"))

	// File GET, whole and ranged.
	whole, err := api.FetchFile(ctx, up.Ref)
	if err != nil {
		t.Fatalf("routed file GET: %v", err)
	}
	status, data = rawDo(t, http.MethodGet, up.URI, nil)
	if status != http.StatusOK || !bytes.Equal(whole, data) || !bytes.Equal(whole, payload) {
		t.Fatalf("file GET: proxied status %d, routed %q, proxied %q", status, whole, data)
	}
	req, _ = http.NewRequest(http.MethodGet, up.URI, nil)
	req.Header.Set("Prefer", core.RoutePreference)
	req.Header.Set("Range", "bytes=0-9")
	resp, err = api.HTTP.Do(req)
	if err != nil {
		t.Fatalf("routed range read: %v", err)
	}
	part := readAll(t, resp)
	if resp.StatusCode != http.StatusPartialContent || !replicaHosts[hostOf(resp.Request.URL.String())] {
		t.Fatalf("routed range read: status %d from %s, want 206 from a replica", resp.StatusCode, resp.Request.URL)
	}
	status, data = rawDo(t, http.MethodGet, up.URI, nil, "Range", "bytes=0-9")
	if status != http.StatusPartialContent || !bytes.Equal(part, data) || string(part) != "0123456789" {
		t.Fatalf("range read: proxied status %d, routed %q, proxied %q", status, part, data)
	}

	taken := rec.redirects()
	if taken == 0 {
		t.Fatal("the routed client was never redirected")
	}
	if moved := redirectsCounted(t, gw.URL) - redirectsBefore; moved != float64(taken) {
		t.Fatalf("mc_gateway_requests_total{code=\"3xx\"} moved by %v, the routed client took %d redirects", moved, taken)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return data
}

func hostOf(uri string) string {
	u, err := url.Parse(uri)
	if err != nil {
		return ""
	}
	return u.Host
}

// TestRoutedClientFailsOverFromDeadReplica is TestDeadReplicaFailsFastAndFailsOver
// for a routed library client whose cache points at the replica that died:
// the cached hop fails, the route is dropped, and the replay through the
// gateway answers a fast 502 and marks the replica down, so new work lands
// on the survivor.
func TestRoutedClientFailsOverFromDeadReplica(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)
	api, rec := routedClient()
	svc := api.Service(gw.URL + "/services/add")
	ctx := context.Background()
	r2Host := hostOf(r2.srv.URL)

	// Prime the cache until a job lands on r02.
	var onR02 *core.Job
	for i := 0; i < 8 && onR02 == nil; i++ {
		job, err := svc.Submit(ctx, core.Values{"a": float64(i)}, 15*time.Second)
		if err != nil {
			t.Fatalf("prime submit %d: %v", i, err)
		}
		if name, _ := client.ReplicaOf(job.ID); name == "r02" {
			onR02 = job
		}
	}
	if onR02 == nil {
		t.Fatal("no submit landed on r02")
	}
	if _, err := svc.Job(ctx, onR02.URI); err != nil {
		t.Fatalf("read of the r02 job: %v", err)
	}
	if h := rec.last(); h.host != r2Host || h.prefer != "" {
		t.Fatalf("read of the r02 job went to %s (Prefer %q), want the cached route to r02", h.host, h.prefer)
	}

	r2.srv.Close()

	start := time.Now()
	_, err := svc.Cancel(ctx, onR02.URI)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("Cancel of an r02 job: %v, want a 502 APIError", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Cancel took %v, want a fast failure", elapsed)
	}
	rec.mu.Lock()
	rec.hops = nil
	rec.mu.Unlock()
	svc.Job(ctx, onR02.URI)
	for _, h := range rec.hops {
		if h.host == r2Host {
			t.Fatalf("route to dead r02 still cached: %s %s went to it", h.method, h.path)
		}
	}

	for i := 0; i < 3; i++ {
		job, err := svc.Submit(ctx, core.Values{"a": float64(i)}, 15*time.Second)
		if err != nil {
			t.Fatalf("failover submit %d: %v", i, err)
		}
		if name, _ := client.ReplicaOf(job.ID); job.State != core.StateDone || name != "r01" {
			t.Fatalf("failover submit %d: state %s on %q, want DONE on r01", i, job.State, name)
		}
	}
}

// TestRoutedClientRelearnsMovedReplica moves a replica to a new address,
// which the gateway learns through Options.Resolver.  The client's cached
// route goes dark; the read falls back through the gateway and succeeds, and
// the next request re-learns the route at the new address.
func TestRoutedClientRelearnsMovedReplica(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	var currentBase atomic.Value
	currentBase.Store(r1.srv.URL)
	opts := gateway.Options{Resolver: func(string) (string, bool) { return currentBase.Load().(string), true }}
	_, gw := startGateway(t, opts, r1)
	api, rec := routedClient()
	svc := api.Service(gw.URL + "/services/add")
	ctx := context.Background()

	job, err := svc.Submit(ctx, core.Values{"a": 1.0}, 15*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if h := rec.last(); h.host != hostOf(r1.srv.URL) {
		t.Fatalf("submit answered by %s, want the route to r01 at %s", h.host, r1.srv.URL)
	}

	moved := httptest.NewServer(r1.c.Handler())
	t.Cleanup(moved.Close)
	currentBase.Store(moved.URL)
	r1.srv.CloseClientConnections()
	r1.srv.Close()

	if got, err := svc.Job(ctx, job.URI); err != nil || got.ID != job.ID {
		t.Fatalf("read after the move: %v", err)
	}
	if _, err := svc.Job(ctx, job.URI); err != nil {
		t.Fatalf("second read after the move: %v", err)
	}
	if h := rec.last(); h.host != hostOf(moved.URL) {
		t.Fatalf("second read answered by %s, want a route to %s", h.host, moved.URL)
	}
	if _, err := svc.Job(ctx, job.URI); err != nil {
		t.Fatalf("third read after the move: %v", err)
	}
	if h := rec.last(); h.host != hostOf(moved.URL) || h.prefer != "" {
		t.Fatalf("third read went to %s (Prefer %q), want the route re-learned at %s", h.host, h.prefer, moved.URL)
	}
}

// TestClientOptsOutOfRoutes pins the rule of when the library asks for
// routes: a client with credentials, or whose http.Client decides about
// redirects itself, never sends the preference and is proxied as before.
func TestClientOptsOutOfRoutes(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{}, r1, r2)
	ctx := context.Background()

	for _, tc := range []struct {
		name  string
		build func(*recorder) *client.Client
	}{
		{"token", func(rec *recorder) *client.Client {
			return &client.Client{HTTP: &http.Client{Transport: rec}, Token: "tok123"}
		}},
		{"check-redirect", func(rec *recorder) *client.Client {
			return &client.Client{HTTP: &http.Client{
				Transport:     rec,
				CheckRedirect: func(*http.Request, []*http.Request) error { return nil },
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			svc := tc.build(rec).Service(gw.URL + "/services/add")
			job, err := svc.Submit(ctx, core.Values{"a": 4.0}, 15*time.Second)
			if err != nil || job.State != core.StateDone {
				t.Fatalf("submit: %v", err)
			}
			if _, err := svc.Job(ctx, job.URI); err != nil {
				t.Fatalf("GET: %v", err)
			}
			if _, err := svc.Cancel(ctx, job.URI); err != nil {
				t.Fatalf("DELETE: %v", err)
			}
			spec := core.SweepSpec{Axes: map[string][]any{"a": {1.0, 2.0}}}
			sweep, err := svc.SubmitSweep(ctx, &spec, 15*time.Second)
			if err != nil {
				t.Fatalf("sweep submit: %v", err)
			}
			if _, err := svc.CancelSweep(ctx, sweep.URI); err != nil {
				t.Fatalf("sweep delete: %v", err)
			}
			for _, h := range rec.hops {
				if h.prefer != "" || h.host != hostOf(gw.URL) || h.status == http.StatusTemporaryRedirect {
					t.Fatalf("%s %s sent to %s with Prefer %q answered %d; want every call proxied without the preference",
						h.method, h.path, h.host, h.prefer, h.status)
				}
			}
		})
	}
}

// TestRoutedUploadFromEagerTransport: a transport with no
// ExpectContinueTimeout (the zero http.Transport) sends an upload's body
// with its headers, whatever Expect says, so the gateway's 307 races the
// bytes.  Every routed upload must still get its 307 and land on a
// replica: the gateway reads what such a client sends anyway instead of
// resetting the connection under it.  Load polling is off, so there is no
// lease and each upload asks the gateway; the retry policy is off, so an
// upload that lost its 307 fails the test.
func TestRoutedUploadFromEagerTransport(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	r1 := startReplica(t, "r01", numService(t, "add", "gwtest.add", false))
	r2 := startReplica(t, "r02", numService(t, "add", "gwtest.add", false))
	_, gw := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)
	eager := &http.Transport{}
	t.Cleanup(eager.CloseIdleConnections)
	rec := &recorder{next: eager}
	api := &client.Client{HTTP: &http.Client{Transport: rec}, Retry: rest.NoRetry}
	blob := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	for i := 0; i < 16; i++ {
		if _, err := api.UploadFile(context.Background(), gw.URL, bytes.NewReader(blob)); err != nil {
			t.Fatalf("routed upload %d: %v", i, err)
		}
	}
	if n := countExchanges(rec, hostOf(gw.URL), "/files"); n != (exchangeCounts{gateway: 16, redirects: 16}) {
		t.Fatalf("gateway answered %d uploads (%d redirects), want 16 redirects", n.gateway, n.redirects)
	}
}
