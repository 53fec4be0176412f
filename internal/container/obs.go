package container

import (
	"strings"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// Container metric families (DESIGN.md §5d).  They live in the process-wide
// default registry, so several containers in one process — the WMS plus an
// application container, or a test harness — aggregate into one /metrics
// view instead of clashing.
var (
	metJobsSubmitted = obs.NewCounter("mc_jobs_submitted_total",
		"Jobs accepted into the queue.")
	metJobsCompleted = obs.NewCounterVec("mc_jobs_completed_total",
		"Jobs that reached a terminal state, by state.", "state")
	metJobsWaiting = obs.NewGauge("mc_job_queue_depth",
		"Jobs waiting in the run queue for a worker, sweep children and re-driven jobs included.")
	metJobsRunning = obs.NewGauge("mc_jobs_running",
		"Jobs currently executing in handler workers.")
	metQueueWait = obs.NewHistogram("mc_job_queue_wait_seconds",
		"Time jobs spent queued before a handler picked them up.",
		obs.DurationBuckets)
	metRunTime = obs.NewHistogram("mc_job_run_seconds",
		"Job execution time from handler pickup to terminal state.",
		obs.DurationBuckets)
	metWorkerPanics = obs.NewCounter("mc_worker_panics_total",
		"Adapter panics recovered by the handler pool.")
	metDeadlineOverruns = obs.NewCounter("mc_job_deadline_overruns_total",
		"Jobs terminated for exceeding their execution deadline.")
	metQueueRejections = obs.NewCounter("mc_job_queue_rejections_total",
		"Submissions rejected because the job queue was full.")

	// Result-reuse plane (DESIGN.md §5e): the computation cache over
	// deterministic services and the content-addressed file store.
	metMemoHits = obs.NewCounter("mc_memo_hits_total",
		"Deterministic submissions answered from the computation cache.")
	metMemoMisses = obs.NewCounter("mc_memo_misses_total",
		"Deterministic submissions that had to execute the adapter.")
	metMemoCoalesced = obs.NewCounter("mc_memo_coalesced_total",
		"Deterministic submissions coalesced onto an identical in-flight execution.")
	metMemoEvictions = obs.NewCounter("mc_memo_evictions_total",
		"Computation cache entries evicted by the LRU bounds.")
	metMemoBytes = obs.NewGauge("mc_memo_bytes",
		"Approximate bytes of cached computation outputs.")
	metDedupFiles = obs.NewCounter("mc_filestore_dedup_files_total",
		"File resources deduplicated to an existing content-addressed blob.")
	metDedupBytes = obs.NewCounter("mc_filestore_dedup_bytes_total",
		"Bytes not written to disk because an identical blob already existed.")
	metRemoteFetches = obs.NewCounter("mc_filestore_remote_fetch_total",
		"Foreign-replica file blobs pulled into the local content-addressed store.")
	metRemoteFetchBytes = obs.NewCounter("mc_filestore_remote_fetch_bytes_total",
		"Bytes transferred pulling foreign-replica file blobs.")

	// Campaign plane (DESIGN.md §5f): parameter sweeps and adapter
	// micro-batching.
	metSweepsSubmitted = obs.NewCounter("mc_sweeps_submitted_total",
		"Parameter sweeps accepted for expansion into child jobs.")
	metSweepActive = obs.NewGauge("mc_sweep_active",
		"Sweeps with at least one non-terminal child job.")
	metSweepChildren = obs.NewCounterVec("mc_sweep_children_total",
		"Sweep child jobs that reached a terminal state, by state.", "state")
	metBatchSize = obs.NewHistogram("mc_batch_size",
		"Jobs dispatched per adapter micro-batch invocation.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})

	// Durability plane (DESIGN.md §5i): journal replay and retention.
	metRecoveryReplayed = obs.NewCounterVec("mc_recovery_replayed_total",
		"State records restored from the write-ahead journal at boot, by record kind.",
		"kind")
	metJobsReaped = obs.NewCounter("mc_jobs_reaped_total",
		"Jobs purged by the destruction-time reaper.")
)

// Children of the by-state families, one per terminal state, resolved once
// so a landing renders no label string.  A resolved child stays hidden from
// /metrics until its first increment.
var (
	jobsCompletedBy = byTerminalState(metJobsCompleted)
	sweepChildrenBy = byTerminalState(metSweepChildren)
)

func byTerminalState(v obs.CounterVec) map[core.JobState]obs.Counter {
	m := make(map[core.JobState]obs.Counter, 3)
	for _, s := range []core.JobState{core.StateDone, core.StateError, core.StateCancelled} {
		m[s] = v.With(strings.ToLower(string(s)))
	}
	return m
}
