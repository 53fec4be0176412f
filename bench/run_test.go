package main

import "testing"

func TestDeriveComparesWorkloadsOfOneRun(t *testing.T) {
	mk := func(name string, p50 float64) *result {
		r := &result{Workload: name, Succeeded: 100, Metrics: map[string]metricValue{}}
		r.set("cycle_p50_ms", p50)
		return r
	}
	results := map[string]*result{
		"table1_small": mk("table1_small", 1.0),
		"table1_wal":   mk("table1_wal", 1.25),
		"gw_small":     mk("gw_small", 1.75),
		"gw_file":      mk("gw_file", 20), // file_1mib did not run
	}
	derive(results)
	if got := results["table1_wal"].value("journal.added_p50_ms"); got != 0.25 {
		t.Errorf("journal.added_p50_ms = %v, want 0.25", got)
	}
	if got := results["gw_small"].value("gateway.added_p50_ms"); got != 0.75 {
		t.Errorf("gateway.added_p50_ms = %v, want 0.75", got)
	}
	if _, ok := results["gw_file"].Metrics["gateway.file_added_p50_ms"]; ok {
		t.Error("gateway.file_added_p50_ms derived without its base workload")
	}
	if _, ok := results["table1_small"].Metrics["journal.added_p50_ms"]; ok {
		t.Error("an added-latency metric appeared on the base workload")
	}
}
