package gateway_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
)

// BenchmarkGatewayScaling measures end-to-end job throughput through the
// federation gateway as the replica pool grows from 1 to 2 to 4.
//
// Each replica runs Workers=1 and the service holds its single worker for a
// fixed 20ms of wall clock, modelling an external solver whose cost is
// wall-clock-bound (license seat, subprocess, remote license server) — the
// common shape for MathCloud-style wrapped applications.  In production each
// replica owns its own cores; in this in-process benchmark every replica,
// the gateway, and all clients share the host CPU, so routing and proxy
// overhead is charged against the same budget as the replicas themselves.
// Near-linear jobs/s scaling therefore demonstrates that the gateway tier's
// per-request cost is small relative to even a 20ms service time.
//
// The service is non-deterministic so neither the computation cache nor the
// gateway memo-hint table can short-circuit execution: every submission
// occupies a replica worker for the full service time.
func BenchmarkGatewayScaling(b *testing.B) {
	const serviceTime = 20 * time.Millisecond
	adapter.RegisterFunc("gwbench.solve", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-time.After(serviceTime):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		a, _ := in["a"].(float64)
		return core.Values{"sum": a}, nil
	})

	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			var reps []*replica
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("r%02d", i+1)
				c, err := container.New(container.Options{
					Workers:   1,
					ReplicaID: name,
					Logger:    quietLogger(),
				})
				if err != nil {
					b.Fatalf("New container %s: %v", name, err)
				}
				b.Cleanup(c.Close)
				if err := c.Deploy(numService(b, "solve", "gwbench.solve", false)); err != nil {
					b.Fatalf("Deploy on %s: %v", name, err)
				}
				srv := httptest.NewServer(c.Handler())
				b.Cleanup(srv.Close)
				reps = append(reps, &replica{name: name, c: c, srv: srv})
			}
			_, gw := startGateway(b, gateway.Options{}, reps...)

			const jobs = 96
			clients := 4 * n // enough submitters to keep every worker busy
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				var next atomic.Int64
				var failed atomic.Int64
				start := time.Now()
				var wg sync.WaitGroup
				for w := 0; w < clients; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > jobs {
								return
							}
							body := fmt.Sprintf(`{"a": %d}`, i)
							resp, err := http.Post(gw.URL+"/services/solve?wait=60s",
								"application/json", strings.NewReader(body))
							if err != nil {
								failed.Add(1)
								return
							}
							var job core.Job
							err = json.NewDecoder(resp.Body).Decode(&job)
							resp.Body.Close()
							if err != nil || resp.StatusCode != http.StatusCreated || job.State != core.StateDone {
								failed.Add(1)
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				if f := failed.Load(); f != 0 {
					b.Fatalf("%d of %d jobs failed", f, jobs)
				}
				b.ReportMetric(float64(jobs)/elapsed.Seconds(), "jobs/s")
			}
		})
	}
}

// BenchmarkFederatedMemoHit measures the federation-wide result-reuse path:
// a deterministic result computed through one gateway is resubmitted through
// a SECOND gateway instance that learned nothing from the first, so every
// request is routed by its digest home to the replica whose cache holds it
// and answered as a job born DONE.  The jobs/s figure bounds the full warm
// path: gateway routing + digest hash + proxy hop + replica-side memo hit.
func BenchmarkFederatedMemoHit(b *testing.B) {
	adapter.RegisterFunc("gwbench.det", func(ctx context.Context, in core.Values) (core.Values, error) {
		a, _ := in["a"].(float64)
		return core.Values{"sum": a}, nil
	})
	r1 := startReplica(b, "r01", numService(b, "det", "gwbench.det", true))
	r2 := startReplica(b, "r02", numService(b, "det", "gwbench.det", true))
	_, gwA := startGateway(b, gateway.Options{LoadInterval: -1}, r1, r2)

	// Prewarm: compute a working set of distinct results through gateway A.
	const warm = 16
	for i := 0; i < warm; i++ {
		resp, err := http.Post(gwA.URL+"/services/det?wait=30s", "application/json",
			strings.NewReader(fmt.Sprintf(`{"a": %d}`, i)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("prewarm %d: status %d", i, resp.StatusCode)
		}
	}

	// A fresh gateway instance: it shares nothing with gateway A.
	gB, err := gateway.New(gateway.Options{
		Replicas: []gateway.Replica{
			{Name: "r01", BaseURL: r1.srv.URL},
			{Name: "r02", BaseURL: r2.srv.URL},
		},
		PingInterval: -1,
		LoadInterval: -1,
		Logger:       quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gB.Close)
	gwB := httptest.NewServer(gB.Handler())
	b.Cleanup(gwB.Close)

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"a": %d}`, i%warm)
		resp, err := http.Post(gwB.URL+"/services/det?wait=30s", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var job core.Job
		decodeErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if decodeErr != nil || resp.StatusCode != http.StatusCreated || job.State != core.StateDone {
			b.Fatalf("warm submit %d: status %d state %s", i, resp.StatusCode, job.State)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}

// BenchmarkSkewedPlacement measures power-of-two-choices placement under
// heterogeneous replicas: r01 answers in 5ms, r02 in 20ms (a 4:1
// service-time skew modelling a slower machine or a busier neighbour).  A
// blind round-robin would send half the batch to the slow replica and let
// its queue dominate the makespan (BENCH_10 recorded that arm); p2c reads
// the advertised queue depths and drains the batch toward the fast replica.
func BenchmarkSkewedPlacement(b *testing.B) {
	const fastTime, slowTime = 5 * time.Millisecond, 20 * time.Millisecond
	sleeper := func(d time.Duration) adapter.Func {
		return func(ctx context.Context, in core.Values) (core.Values, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			a, _ := in["a"].(float64)
			return core.Values{"sum": a}, nil
		}
	}
	adapter.RegisterFunc("gwbench.fast", sleeper(fastTime))
	adapter.RegisterFunc("gwbench.slow", sleeper(slowTime))

	// Same service name on both replicas, different backing speed.
	r1 := startReplica(b, "r01", numService(b, "skew", "gwbench.fast", false))
	r2 := startReplica(b, "r02", numService(b, "skew", "gwbench.slow", false))
	_, gw := startGateway(b, gateway.Options{LoadInterval: 25 * time.Millisecond}, r1, r2)

	const jobs = 64
	const clients = 8
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		var next atomic.Int64
		var failed atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > jobs {
						return
					}
					body := fmt.Sprintf(`{"a": %d}`, i)
					resp, err := http.Post(gw.URL+"/services/skew?wait=60s",
						"application/json", strings.NewReader(body))
					if err != nil {
						failed.Add(1)
						return
					}
					var job core.Job
					err = json.NewDecoder(resp.Body).Decode(&job)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusCreated || job.State != core.StateDone {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if f := failed.Load(); f != 0 {
			b.Fatalf("%d of %d jobs failed", f, jobs)
		}
		b.ReportMetric(float64(jobs)/elapsed.Seconds(), "jobs/s")
	}
}
