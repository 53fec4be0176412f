package main

import (
	"math"
	"strings"
	"testing"
)

const promBefore = `# HELP mc_http_request_seconds HTTP request handling latency by route.
# TYPE mc_http_request_seconds histogram
mc_http_request_seconds_bucket{route="file",le="0.001"} 0
mc_http_request_seconds_bucket{route="file",le="+Inf"} 1
mc_http_request_seconds_sum{route="file"} 0.002507495
mc_http_request_seconds_count{route="file"} 1
mc_http_request_seconds_sum{route="service"} 0.005
mc_http_request_seconds_count{route="service"} 2
mc_http_requests_total{route="service",method="POST",code="2xx"} 2
mc_filestore_dedup_bytes_total 1.048576e+06
mc_jobs_submitted_total 5
`

const promAfter = `mc_http_request_seconds_bucket{route="file",le="0.001"} 0
mc_http_request_seconds_bucket{route="file",le="+Inf"} 4
mc_http_request_seconds_sum{route="file"} 0.011507495
mc_http_request_seconds_count{route="file"} 4
mc_http_request_seconds_sum{route="service"} 0.025
mc_http_request_seconds_count{route="service"} 12
mc_http_request_seconds_sum{route="job"} 0.004
mc_http_request_seconds_count{route="job"} 10
mc_http_requests_total{route="service",method="POST",code="2xx"} 12
mc_http_requests_total{route="job",method="DELETE",code="2xx"} 10
mc_filestore_dedup_bytes_total 1.048576e+06
mc_jobs_submitted_total 15
`

func mustParse(t *testing.T, text string) promSnapshot {
	t.Helper()
	snap, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPromParse(t *testing.T) {
	snap := mustParse(t, promBefore)
	if got := snap.sum("mc_filestore_dedup_bytes_total"); got != 1048576 {
		t.Errorf("exponent value = %v, want 1048576", got)
	}
	if got := snap.sum("mc_http_request_seconds_bucket", `le="+Inf"`); got != 1 {
		t.Errorf("+Inf bucket = %v, want 1", got)
	}
	if got := snap.sum("mc_http_request_seconds_count"); got != 3 {
		t.Errorf("count over all routes = %v, want 3", got)
	}
	if got := snap.sum("mc_http_requests_total", `route="service"`, `method="POST"`); got != 2 {
		t.Errorf("two label fragments = %v, want 2", got)
	}
	if got := snap.sum("mc_jobs_submitted"); got != 0 {
		t.Errorf("a name prefix matched: %v", got)
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"mc_x{a=\"b\" 1\n", "mc_x\n", "mc_x one\n"} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}

// The delta of two scrapes, including histogram sum and count: a series
// that first appears in the second scrape counts from zero.
func TestPromDelta(t *testing.T) {
	d := mustParse(t, promAfter).sub(mustParse(t, promBefore))
	if got := d.sum("mc_jobs_submitted_total"); got != 10 {
		t.Errorf("counter delta = %v, want 10", got)
	}
	if got := d.histMean("mc_http_request_seconds", `route="file"`); !near(got, 0.003) {
		t.Errorf("file mean = %v, want 0.003 (0.009 s over 3 requests)", got)
	}
	if got := d.histMean("mc_http_request_seconds", `route="service"`); !near(got, 0.002) {
		t.Errorf("service mean = %v, want 0.002", got)
	}
	if got := d.histMean("mc_http_request_seconds", `route="job"`); !near(got, 0.0004) {
		t.Errorf("job mean (series absent before) = %v, want 0.0004", got)
	}
	if got := d.histMean("mc_http_request_seconds", `route="sweep_list"`); got != 0 {
		t.Errorf("mean of an unobserved histogram = %v, want 0", got)
	}
	if got := d.sum("mc_filestore_dedup_bytes_total"); got != 0 {
		t.Errorf("unchanged counter delta = %v, want 0", got)
	}
}

func TestPromAddSumsReplicas(t *testing.T) {
	total := promSnapshot{}
	total.add(mustParse(t, promBefore))
	total.add(mustParse(t, promAfter))
	if got := total.sum("mc_jobs_submitted_total"); got != 20 {
		t.Errorf("summed replicas = %v, want 20", got)
	}
}
