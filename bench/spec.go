package main

// metricSpec names one metric of the benchmark.  The end-to-end list and
// the per-layer list below are the single source of the names in
// BENCHMARK.json, README.md and result.json; spec_test.go checks that the
// three agree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves says which end-to-end metric, on which workload, the layer
	// metric is expected to move (and where the prediction is no change).
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the gated metrics, reported by every workload.  The share of
// failed operations is not in the list because it must stay 0 and the
// benchmark contract forbids gating a metric whose baseline is 0: it is
// carried by the attempted/failed counts of every result instead.
var endToEnd = []metricSpec{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cycle_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the ungated metrics.  The first block is scraped (deltas of
// the servers' /metrics and /proc over the window); the trace.* block comes
// from the in-process traced run.
var perLayer = []metricSpec{
	{Name: "client.cycle_p90_ms", Unit: "ms", Better: "lower", Moves: "tail of cycle_p50_ms and, through the mean, jobs_per_s; every workload"},
	{Name: "client.cycle_p99_ms", Unit: "ms", Better: "lower", Moves: "tail beyond client.cycle_p90_ms, every workload"},
	{Name: "client.cycle_max_ms", Unit: "ms", Better: "lower", Moves: "stalls; no e2e metric"},
	{Name: "client.requests_per_job", Unit: "count", Better: "lower", Moves: "cycle_p50_ms, every workload"},

	{Name: "container.http_submit_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on table1_small, memo_resubmit, gw_small"},
	{Name: "container.http_job_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on table1_small (the DELETE half)"},
	{Name: "container.http_file_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on file_1mib, gw_file; 0 on the others"},
	{Name: "container.http_sweep_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on sweep_1k; 0 on the others"},
	{Name: "container.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "client.cycle_p90_ms on table1_small; 0 on memo_resubmit"},
	{Name: "container.run_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s, server_cpu_ms_per_job on table1_small, sweep_1k, gw_small (work directory), file_1mib (staging + cp); 0 on memo_resubmit"},
	{Name: "container.batch_size_mean", Unit: "count", Better: "higher", Moves: "jobs_per_s on sweep_1k once a service batches; 0 today"},
	{Name: "container.memo_hit_share", Unit: "share", Better: "higher", Moves: "jobs_per_s on memo_resubmit (must stay 1); 0 on the others"},
	{Name: "container.remote_fetch_share", Unit: "share", Better: "lower", Moves: "cycle_p50_ms on gw_file; 0 on direct workloads"},

	{Name: "journal.appends_per_job", Unit: "count", Better: "lower", Moves: "jobs_per_s, server_cpu_ms_per_job on table1_wal; 0 on the others"},
	{Name: "journal.bytes_per_job", Unit: "count", Better: "lower", Moves: "server_cpu_ms_per_job on table1_wal; 0 on the others"},
	{Name: "journal.fsyncs_per_s", Unit: "1/s", Better: "lower", Moves: "client.cycle_p90_ms on table1_wal; 0 on the others"},
	{Name: "journal.recovery_ms", Unit: "ms", Better: "lower", Moves: "no e2e metric (kill to ready, table1_wal only)"},
	{Name: "journal.added_p50_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on table1_wal minus table1_small"},

	{Name: "events.published_per_job", Unit: "count", Better: "lower", Moves: "no change: nothing subscribes in any workload"},
	{Name: "events.dropped_total", Unit: "count", Better: "lower", Moves: "no change: nothing subscribes in any workload"},

	{Name: "gateway.proxy_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on gw_small, gw_file; 0 on direct workloads"},
	{Name: "gateway.requests_per_job", Unit: "count", Better: "lower", Moves: "cycle_p50_ms on gw_small, gw_file"},
	{Name: "gateway.placement_skew", Unit: "ratio", Better: "lower", Moves: "client.cycle_p90_ms on gw_small (max/min jobs per replica)"},
	{Name: "gateway.added_p50_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on gw_small minus table1_small"},
	{Name: "gateway.file_added_p50_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms on gw_file minus file_1mib"},

	{Name: "everest.cpu_ms_per_job", Unit: "ms", Better: "lower", Moves: "server_cpu_ms_per_job, every workload"},
	{Name: "mcgw.cpu_ms_per_job", Unit: "ms", Better: "lower", Moves: "server_cpu_ms_per_job on gw_small, gw_file; 0 on direct"},
	{Name: "loadgen.cpu_ms_per_job", Unit: "ms", Better: "lower", Moves: "none: shows when the generator is the limit"},
	{Name: "everest.rss_mib", Unit: "MiB", Better: "lower", Moves: "none (VmHWM at window end)"},
	{Name: "mcgw.rss_mib", Unit: "MiB", Better: "lower", Moves: "none (VmHWM at window end); 0 on direct"},

	{Name: "trace.cycle_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.client.call_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms, every workload (client + socket + net/http)"},
	{Name: "trace.obs.instrument_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms, every workload (ingress middleware)"},
	{Name: "trace.container.handler_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.gw_cycle_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on gw_small"},
	{Name: "trace.gw.client.call_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on gw_small"},
	{Name: "trace.gateway.handler_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on gw_small, gw_file (route + proxy)"},
	{Name: "trace.gw.obs.instrument_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on gw_small"},
	{Name: "trace.gw.container.handler_self_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on gw_small"},
	{Name: "trace.rest.read_json_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.rest.write_json_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.core.validate_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.core.canonical_hash_us", Unit: "us", Better: "lower", Moves: "jobs_per_s on memo_resubmit; no change on table1_small"},
	{Name: "trace.container.submit_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small, sweep_1k"},
	{Name: "trace.container.wait_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small (queue hand-off + wake-up)"},
	{Name: "trace.container.delete_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on table1_small"},
	{Name: "trace.adapter.script_invoke_us", Unit: "us", Better: "lower", Moves: "jobs_per_s on sweep_1k, table1_small"},
	{Name: "trace.adapter.command_invoke_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on file_1mib"},
	{Name: "trace.journal.append_off_us", Unit: "us", Better: "lower", Moves: "no workload (floor of the journal encode)"},
	{Name: "trace.journal.append_batch_us", Unit: "us", Better: "lower", Moves: "jobs_per_s on table1_wal"},
	{Name: "trace.journal.append_always_us", Unit: "us", Better: "lower", Moves: "no workload (cost of -wal-sync always)"},
	{Name: "trace.events.publish_us", Unit: "us", Better: "lower", Moves: "no change: unwatched topics"},
	{Name: "trace.container.files_put_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on file_1mib, gw_file"},
	{Name: "trace.container.files_stage_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on file_1mib"},
	{Name: "trace.container.files_put_file_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on file_1mib"},
	{Name: "trace.container.files_read_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms on file_1mib"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "none: traced vs untraced in-process cycle p50"},
	{Name: "trace.coverage_share", Unit: "share", Better: "higher", Moves: "none: nested self times over the cycle time (about 1)"},
}

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"table1_small", "Table 1 cycle on a trivial job: ingress, JobManager, queue hand-off, script adapter and long-poll wake-up dominate; files, memo and journal are bypassed"},
	{"table1_wal", "same traffic with -data-dir and -wal-sync batch, then SIGKILL and recovery: isolates what the journal adds per lifecycle transition"},
	{"memo_resubmit", "deterministic resubmits over a 1024-value working set that fits the cache: canonical hash and memo gate work, queue and adapter are bypassed"},
	{"file_1mib", "1 MiB upload, cp job, download and compare: the file plane and the command adapter dominate, control plane is under a tenth of the cycle"},
	{"sweep_1k", "one 1000-point sweep per cycle: same JobManager and adapter as table1_small through the bulk path with no per-job HTTP"},
	{"gw_small", "table1_small traffic through mcgw and two replicas: route decision, proxy and the second HTTP traversal are the delta to table1_small"},
	{"gw_file", "file_1mib traffic through the federation: blob streaming through the proxy and cross-replica fetches, which gw_small cannot show"},
}
