package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"syscall"
	"time"

	"mathcloud/internal/core"
)

// warmup is how long the clients drive the servers before every measured
// window.
const warmup = 2 * time.Second

// setups is how often set-up is repeated within a run; setup_s is the median,
// so one slow process launch does not decide it.
const setups = 5

// Iterations of the traced run (a tenth as many again come first as its
// warm-up): 2000 for the suite, 500 for a single workload, because a driver's
// run has a time budget.
const (
	suiteTraceIters  = 2000
	singleTraceIters = 500
)

// opTimeout bounds one operation, so a hung server fails operations instead
// of hanging the run.
const opTimeout = 60 * time.Second

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string  `json:"workload"`
	Why       string  `json:"why"`
	Seed      int64   `json:"seed"`
	Clients   int     `json:"clients"`
	WarmupS   float64 `json:"warmup_s"`
	WindowS   float64 `json:"window_s"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Jobs      int     `json:"jobs"`
	// TailPercentile is the percentile client.cycle_p90_ms was reported at:
	// 90, or lower when the window held fewer than 100 samples.
	TailPercentile float64 `json:"tail_percentile"`
	// Problems lists wrong outputs and broken invariants; any entry, like
	// any failed operation, makes the run incorrect.
	Problems []string               `json:"problems,omitempty"`
	Commands []string               `json:"commands"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func (r *result) value(name string) float64 { return r.Metrics[name].Value }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// extraMetrics are printed and stored but neither gated nor part of the
// per-layer contract.
var extraMetrics = []metricSpec{
	{Name: "failed_share", Unit: "share", Better: "lower"},
	{Name: "build_s", Unit: "s", Better: "lower"},
}

// phase is what the clients did between two barriers.
type phase struct {
	latMS     []float64 // cycle latency of every successful operation
	attempted int
	failed    int
	jobs      int
	elapsed   time.Duration
	firstErr  error
}

// runPhase drives every worker in a closed loop for d: each sends its next
// operation when the previous one has completed.  It returns once every
// worker has finished the operation it had in flight at the deadline, so the
// servers are idle on both sides of a phase and counter deltas are exact.
func runPhase(ctx context.Context, wl *workload, workers []*worker, d time.Duration) phase {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]phase, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(p *phase, w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				opCtx, cancel := context.WithTimeout(ctx, opTimeout)
				w.t0 = time.Now()
				jobs, err := wl.op(opCtx, w)
				lat := time.Since(w.t0)
				cancel()
				w.n++
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					time.Sleep(5 * time.Millisecond) // do not spin on a dead server
					continue
				}
				p.jobs += jobs
				p.latMS = append(p.latMS, float64(lat.Nanoseconds())/1e6)
			}
		}(&parts[i], w)
	}
	wg.Wait()
	total := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		total.latMS = append(total.latMS, p.latMS...)
		total.attempted += p.attempted
		total.failed += p.failed
		total.jobs += p.jobs
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// runWorkload sets the system up (several times, keeping the last),
// warms it up, measures one window between two readings of the servers'
// counters, checks the invariants of the workload and tears everything
// down.
func (h *harness) runWorkload(ctx context.Context, wl *workload, seed int64, warm, window time.Duration) (*result, error) {
	res := &result{Workload: wl.Name, Why: wl.Why, Seed: seed, Clients: wl.clients,
		WarmupS: warm.Seconds(), Metrics: map[string]metricValue{}}

	var dep *deployment
	var workers []*worker
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	var setupS []float64
	for i := 0; i < setups; i++ {
		if dep != nil {
			dep.stop()
		}
		start := time.Now()
		var err error
		if dep, err = h.deploy(ctx, wl.topo); err != nil {
			return nil, err
		}
		workers = workers[:0]
		for id := 0; id < wl.clients; id++ {
			workers = append(workers, newWorker(id, seed, dep.base, wl.topo == federated))
		}
		if wl.prepare != nil {
			if err := wl.prepare(ctx, workers[0]); err != nil {
				return nil, fmt.Errorf("%s: pre-population: %w", wl.Name, err)
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	res.Commands = dep.cmdlines()
	res.set("setup_s", median(setupS))
	res.set("build_s", h.buildS)

	// What set-up created and removed (five deployments; before them the build
	// and the previous run's tear-down) sits in the file system's running
	// transaction, and until that commits every mkdir and rmdir of a job's
	// work directory costs several times more: container.run_ms of a script
	// job is 0.09 ms after a sync and anything up to 0.7 ms without one (ext4).
	// Commit it now, so that the window pays for the servers' file operations
	// and not for the harness's.
	syscall.Sync()

	if ph := runPhase(ctx, wl, workers, warm); ph.failed > 0 {
		res.problem("warm-up: %d of %d operations failed, first: %v", ph.failed, ph.attempted, ph.firstErr)
	}
	for _, w := range workers {
		w.requests.n.Store(0)
		w.byReplica = map[string]int{}
	}
	before, err := dep.read(ctx)
	if err != nil {
		return nil, err
	}
	ph := runPhase(ctx, wl, workers, window)
	after, err := dep.read(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.WindowS = ph.elapsed.Seconds()
	res.Attempted, res.Failed, res.Jobs = ph.attempted, ph.failed, ph.jobs
	res.Succeeded = ph.attempted - ph.failed
	if ph.firstErr != nil {
		res.problem("%d of %d operations failed, first: %v", ph.failed, ph.attempted, ph.firstErr)
	}
	if res.Succeeded == 0 {
		return res, nil
	}
	var requests int64
	for _, w := range workers {
		requests += w.requests.n.Load()
	}
	res.measure(ph, before, after, requests)
	for _, c := range dep.everests {
		rss, err := procPeakRSS(c.pid())
		if err != nil {
			return nil, err
		}
		res.set("everest.rss_mib", math.Max(res.value("everest.rss_mib"), rss))
	}
	if dep.gateway != nil {
		rss, err := procPeakRSS(dep.gateway.pid())
		if err != nil {
			return nil, err
		}
		res.set("mcgw.rss_mib", rss)
	}
	res.checkLayers(wl, workers)
	if wl.topo == directWAL {
		res.checkRecovery(ctx, dep, workers)
	}
	return res, nil
}

// measure turns the window's samples and counter deltas into metrics.
func (r *result) measure(ph phase, before, after *counters, requests int64) {
	jobs := float64(ph.jobs)
	secs := ph.elapsed.Seconds()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	lat := sortedCopy(ph.latMS)
	r.TailPercentile = allowedPercentile(len(lat), 90)

	everestCPU := ms(after.everestCPU - before.everestCPU)
	gatewayCPU := ms(after.gatewayCPU - before.gatewayCPU)
	r.set("jobs_per_s", jobs/secs)
	r.set("cycle_p50_ms", percentile(lat, 50))
	r.set("server_cpu_ms_per_job", (everestCPU+gatewayCPU)/jobs)
	r.set("failed_share", float64(ph.failed)/float64(ph.attempted))

	r.set("client.cycle_p90_ms", percentile(lat, r.TailPercentile))
	r.set("client.cycle_p99_ms", percentile(lat, allowedPercentile(len(lat), 99)))
	r.set("client.cycle_max_ms", lat[len(lat)-1])
	r.set("client.requests_per_job", float64(requests)/jobs)
	r.set("everest.cpu_ms_per_job", everestCPU/jobs)
	r.set("mcgw.cpu_ms_per_job", gatewayCPU/jobs)
	r.set("loadgen.cpu_ms_per_job", ms(after.selfCPU-before.selfCPU)/jobs)
	r.set("everest.rss_mib", 0)
	r.set("mcgw.rss_mib", 0)

	ev := after.everest.sub(before.everest)
	const httpSeconds = "mc_http_request_seconds"
	r.set("container.http_submit_ms", 1e3*ev.histMean(httpSeconds, `route="service"`))
	r.set("container.http_job_ms", 1e3*ev.histMean(httpSeconds, `route="job"`))
	r.set("container.http_file_ms", 1e3*ev.histMean(httpSeconds, `route="file"`))
	r.set("container.http_sweep_ms", 1e3*ev.histMean(httpSeconds, `route="sweep_list"`))
	r.set("container.queue_wait_ms", 1e3*ev.histMean("mc_job_queue_wait_seconds"))
	r.set("container.run_ms", 1e3*ev.histMean("mc_job_run_seconds"))
	r.set("container.batch_size_mean", ev.histMean("mc_batch_size"))
	hits := ev.sum("mc_memo_hits_total")
	lookups := hits + ev.sum("mc_memo_misses_total") + ev.sum("mc_memo_coalesced_total")
	r.set("container.memo_hit_share", ratio(hits, lookups))
	r.set("container.remote_fetch_share", ev.sum("mc_filestore_remote_fetch_total")/jobs)
	r.set("journal.appends_per_job", ev.sum("mc_wal_appends_total")/jobs)
	r.set("journal.bytes_per_job", ev.sum("mc_wal_bytes_total")/jobs)
	r.set("journal.fsyncs_per_s", ev.sum("mc_wal_fsyncs_total")/secs)
	r.set("journal.recovery_ms", 0)
	r.set("events.published_per_job", ev.sum("mc_events_published_total")/jobs)
	r.set("events.dropped_total", ev.sum("mc_events_dropped_total"))

	gw := after.gateway.sub(before.gateway)
	r.set("gateway.proxy_ms", 1e3*gw.histMean("mc_gateway_proxy_seconds"))
	r.set("gateway.requests_per_job", gw.sum("mc_gateway_requests_total")/jobs)
	r.set("gateway.placement_skew", 0)
	if len(after.perReplica) > 1 {
		lo, hi := math.Inf(1), 0.0
		for i := range after.perReplica {
			n := after.perReplica[i].sum("mc_jobs_submitted_total") - before.perReplica[i].sum("mc_jobs_submitted_total")
			lo, hi = math.Min(lo, n), math.Max(hi, n)
		}
		if lo == 0 {
			r.problem("a replica ran no job in the window (most on one replica: %.0f)", hi)
		} else {
			r.set("gateway.placement_skew", hi/lo)
		}
	}
	// Filled in by derive, from the workload this one is compared with.
	r.set("journal.added_p50_ms", 0)
	r.set("gateway.added_p50_ms", 0)
	r.set("gateway.file_added_p50_ms", 0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkLayers verifies that each layer did its work where it should and
// none where it should not.
func (r *result) checkLayers(wl *workload, workers []*worker) {
	share := r.value("container.memo_hit_share")
	switch {
	case wl.Name == "memo_resubmit" && share != 1:
		r.problem("memo hit share is %v, want 1: every measured resubmit must be a cache hit", share)
	case wl.Name != "memo_resubmit" && share != 0:
		r.problem("memo hit share is %v on a workload that bypasses the cache", share)
	}
	if wl.topo != directWAL && r.value("journal.appends_per_job") != 0 {
		r.problem("the journal took %v appends per job with journaling off", r.value("journal.appends_per_job"))
	}
	if wl.topo == directWAL && r.value("journal.appends_per_job") == 0 {
		r.problem("the journal took no appends with -data-dir set")
	}
	if wl.topo == federated {
		counted := 0
		for _, w := range workers {
			for _, n := range w.byReplica {
				counted += n
			}
		}
		if counted != r.Succeeded {
			r.problem("%d of %d job IDs carried a replica prefix", counted, r.Succeeded)
		}
	} else if r.value("container.remote_fetch_share") != 0 {
		r.problem("a single container fetched %v remote blobs per job", r.value("container.remote_fetch_share"))
	}
}

// checkRecovery SIGKILLs the journaled server, restarts it on the same
// directory and checks that every job that was acknowledged and not deleted
// is still there with its output.
func (r *result) checkRecovery(ctx context.Context, dep *deployment, workers []*worker) {
	took, err := dep.crashAndRecover(ctx)
	if err != nil {
		r.problem("recovery: %v", err)
		return
	}
	r.set("journal.recovery_ms", float64(took.Nanoseconds())/1e6)
	retained, lost := 0, 0
	var first error
	for _, w := range workers {
		for _, kept := range w.retained {
			retained++
			job, err := w.inc.Job(ctx, kept.uri)
			if err == nil {
				if y, ok := job.Outputs["y"].(float64); job.State != core.StateDone || !ok || y != kept.y {
					err = fmt.Errorf("job %s recovered as %s y = %v, want DONE y = %v", job.ID, job.State, job.Outputs["y"], kept.y)
				}
			}
			if err != nil {
				lost++
				if first == nil {
					first = err
				}
			}
		}
	}
	if retained == 0 {
		r.problem("recovery: no job was retained to check")
	}
	if lost > 0 {
		r.problem("recovery lost %d of %d retained acknowledged jobs, first: %v", lost, retained, first)
	}
}

// comparedWith names, per workload, the workload whose p50 is subtracted to
// get an added-latency metric, and that metric.
var comparedWith = map[string]struct{ base, metric string }{
	"table1_wal": {"table1_small", "journal.added_p50_ms"},
	"gw_small":   {"table1_small", "gateway.added_p50_ms"},
	"gw_file":    {"file_1mib", "gateway.file_added_p50_ms"},
}

// derive fills in the metrics that compare two workloads of one run.
func derive(results map[string]*result) {
	for name, cmp := range comparedWith {
		r, base := results[name], results[cmp.base]
		if r == nil || base == nil || r.Succeeded == 0 || base.Succeeded == 0 {
			continue
		}
		r.set(cmp.metric, r.value("cycle_p50_ms")-base.value("cycle_p50_ms"))
	}
}

// sortedMetricNames lists the metrics of a result in spec order: end-to-end
// first, then failed_share and build_s, then per-layer.
func (r *result) sortedMetricNames() []string {
	var out []string
	for _, list := range [][]metricSpec{endToEnd, extraMetrics, perLayer} {
		for _, m := range list {
			if _, ok := r.Metrics[m.Name]; ok {
				out = append(out, m.Name)
			}
		}
	}
	return out
}
