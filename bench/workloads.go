package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/rest"
)

// submitWait is the ?wait= window of every submission: long enough that a
// job of these workloads always answers DONE in the submit's own round trip.
const submitWait = 30 * time.Second

// countingTransport counts the HTTP requests a client sends, for
// client.requests_per_job.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.next.RoundTrip(r)
}

// retainedJob is a job table1_wal acknowledged and did not delete; it must
// be readable, with its output, after the crash.
type retainedJob struct {
	uri string
	y   float64
}

// worker is one closed-loop client: its own keep-alive connection, its own
// random stream, and the operations it has issued so far.
type worker struct {
	id        int
	seed      int64
	base      string
	federated bool // base is a gateway: job IDs carry a replica prefix
	api       *client.Client
	requests  *countingTransport
	inc       *client.Service
	incdet    *client.Service
	copy      *client.Service
	rng       *rand.Rand
	n         int       // operations started, warm-up included
	t0        time.Time // start of the current operation's timed part
	blob      []byte
	retained  []retainedJob
	byReplica map[string]int
}

func newWorker(id int, seed int64, base string, federated bool) *worker {
	ct := &countingTransport{next: &http.Transport{
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
	// No retries: a refused or dropped request is a failed operation, not a
	// slower one.
	api := &client.Client{HTTP: &http.Client{Transport: ct}, Retry: rest.NoRetry}
	return &worker{
		id: id, seed: seed, base: base, federated: federated, api: api, requests: ct,
		inc:       api.Service(base + "/services/inc"),
		incdet:    api.Service(base + "/services/incdet"),
		copy:      api.Service(base + "/services/copy"),
		rng:       newRNG(seed, id),
		byReplica: map[string]int{},
	}
}

// incCycle is the Table 1 cycle on a trivial job: POST the request, read the
// result off the answer, check it, DELETE the job.
func (w *worker) incCycle(ctx context.Context, svc *client.Service, x float64, wait time.Duration, del bool) (*core.Job, error) {
	job, err := svc.Submit(ctx, core.Values{"x": x}, wait)
	if err != nil {
		return nil, err
	}
	if job.State != core.StateDone {
		return nil, fmt.Errorf("job %s answered %s, want DONE", job.ID, job.State)
	}
	if y, ok := job.Outputs["y"].(float64); !ok || y != x+1 {
		return nil, fmt.Errorf("job %s: y = %v, want %v", job.ID, job.Outputs["y"], x+1)
	}
	if del {
		if _, err := svc.Cancel(ctx, job.URI); err != nil {
			return nil, err
		}
	}
	return job, nil
}

func opSmall(ctx context.Context, w *worker) (int, error) {
	job, err := w.incCycle(ctx, w.inc, smallX(w.seed, w.id, w.n), submitWait, true)
	if err != nil {
		return 1, err
	}
	return 1, w.noteReplica(job.ID)
}

// opWAL is opSmall except that every tenth job is kept for the crash check.
func opWAL(ctx context.Context, w *worker) (int, error) {
	x := smallX(w.seed, w.id, w.n)
	keep := w.n%10 == 9
	job, err := w.incCycle(ctx, w.inc, x, submitWait, !keep)
	if err == nil && keep {
		w.retained = append(w.retained, retainedJob{uri: job.URI, y: x + 1})
	}
	return 1, err
}

// opMemo resubmits one of the pre-populated inputs without ?wait=: a cache
// hit is born DONE, with one timestamp for its whole lifecycle.
func opMemo(ctx context.Context, w *worker) (int, error) {
	job, err := w.incCycle(ctx, w.incdet, memoX(w.seed, w.rng), 0, false)
	if err != nil {
		return 1, err
	}
	if !job.Finished.Equal(job.Submitted) {
		return 1, fmt.Errorf("job %s was executed, want a cache hit", job.ID)
	}
	// Only the hit's own job goes: deleting the job that backs the cache
	// entry would drop the entry.
	_, err = w.incdet.Cancel(ctx, job.URI)
	return 1, err
}

// noteReplica checks the rNN- affinity prefix of a job ID minted behind the
// gateway and counts the job for its replica.
func (w *worker) noteReplica(jobID string) error {
	if !w.federated {
		return nil
	}
	replica, ok := client.ReplicaOf(jobID)
	if !ok {
		return fmt.Errorf("job ID %s carries no replica prefix", jobID)
	}
	w.byReplica[replica]++
	return nil
}

// opFile uploads a unique 1 MiB blob, has the copy service cp it, streams
// the output back and compares digests, then deletes the job (with its
// output file) and the upload.
func opFile(ctx context.Context, w *worker) (int, error) {
	if w.blob == nil {
		w.blob = blobBase(w.seed, w.id)
	}
	stampBlob(w.blob, w.seed, w.id, w.n)
	want := sha256.Sum256(w.blob)
	w.t0 = time.Now() // generating and hashing the input is not server time

	ref, err := w.api.UploadFile(ctx, w.base, bytes.NewReader(w.blob))
	if err != nil {
		return 1, err
	}
	job, err := w.copy.Submit(ctx, core.Values{"data": ref}, submitWait)
	if err != nil {
		return 1, err
	}
	if job.State != core.StateDone {
		return 1, fmt.Errorf("job %s answered %s (%s), want DONE", job.ID, job.State, job.Error)
	}
	h := sha256.New()
	n, err := w.api.FetchFileTo(ctx, job.Outputs["copy"], h)
	if err != nil {
		return 1, err
	}
	if n != blobSize || !bytes.Equal(h.Sum(nil), want[:]) {
		return 1, fmt.Errorf("job %s: output of %d bytes differs from the upload", job.ID, n)
	}
	if _, err := w.copy.Cancel(ctx, job.URI); err != nil {
		return 1, err
	}
	if err := w.noteReplica(job.ID); err != nil {
		return 1, err
	}
	return 1, w.deleteFile(ctx, ref)
}

// deleteFile DELETEs an uploaded file; the client package has no call for
// it.
func (w *worker) deleteFile(ctx context.Context, ref string) error {
	uri, _ := core.FileRefID(ref)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, uri, nil)
	if err != nil {
		return err
	}
	resp, err := w.api.HTTP.Do(req)
	if err != nil {
		return err
	}
	rest.Drain(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE %s: %s", uri, resp.Status)
	}
	return nil
}

// opSweep submits one 1000-point sweep and waits for it in the same
// request, pages the children once to check every output in point order,
// and deletes the sweep.
func opSweep(ctx context.Context, w *worker) (int, error) {
	axis := sweepAxis(w.seed, w.n)
	w.t0 = time.Now()
	sw, err := w.inc.SubmitSweep(ctx, &core.SweepSpec{Axes: map[string][]any{"x": axis}}, submitWait)
	if err != nil {
		return sweepSize, err
	}
	if sw.State != core.StateDone || sw.Counts.Done != sweepSize {
		return sweepSize, fmt.Errorf("sweep %s answered %s with %d done, want DONE with %d", sw.ID, sw.State, sw.Counts.Done, sweepSize)
	}
	jobs, total, err := w.inc.SweepJobs(ctx, sw.URI, "", 0, 0)
	if err != nil {
		return sweepSize, err
	}
	if total != sweepSize || len(jobs) != sweepSize {
		return sweepSize, fmt.Errorf("sweep %s lists %d of %d children, want %d", sw.ID, len(jobs), total, sweepSize)
	}
	for k, job := range jobs {
		want := axis[k].(float64) + 1
		if y, ok := job.Outputs["y"].(float64); job.State != core.StateDone || !ok || y != want {
			return sweepSize, fmt.Errorf("sweep %s child %d: %s y = %v, want DONE y = %v", sw.ID, k, job.State, job.Outputs["y"], want)
		}
	}
	_, err = w.inc.CancelSweep(ctx, sw.URI)
	return sweepSize, err
}

// prepareMemo pre-populates the computation cache with every input of the
// working set; the jobs stay, because they back the cache entries.
func prepareMemo(ctx context.Context, w *worker) error {
	for k := 0; k < memoKeys; k++ {
		if _, err := w.incCycle(ctx, w.incdet, memoKey(w.seed, k), submitWait, false); err != nil {
			return err
		}
	}
	return nil
}

// workload is one named traffic mix.
type workload struct {
	workloadSpec
	topo    topology
	clients int
	// prepare is the pre-population part of set-up, run by the first
	// client before the warm-up.
	prepare func(ctx context.Context, w *worker) error
	// op runs one operation and returns how many jobs it stands for.
	op func(ctx context.Context, w *worker) (int, error)
}

var workloads = []workload{
	{workloadSpecs[0], direct, 2, nil, opSmall},
	{workloadSpecs[1], directWAL, 2, nil, opWAL},
	{workloadSpecs[2], direct, 2, prepareMemo, opMemo},
	{workloadSpecs[3], direct, 2, nil, opFile},
	{workloadSpecs[4], direct, 1, nil, opSweep},
	{workloadSpecs[5], federated, 2, nil, opSmall},
	{workloadSpecs[6], federated, 2, nil, opFile},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
