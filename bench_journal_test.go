// Durability-plane benchmarks (DESIGN.md §5i): what the write-ahead journal
// costs on the submit path at each sync mode, and how fast boot-time replay
// rebuilds a container from ~10k journaled jobs.  Numbers land in
// BENCH_9.json.
package mathcloud_test

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/journal"
)

// quietLog silences container lifecycle logs in benchmarks.
func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

var registerJournalBenchFunc = sync.OnceFunc(func() {
	adapter.RegisterFunc("benchwal.echo", func(_ context.Context, in core.Values) (core.Values, error) {
		return core.Values{"y": in["x"]}, nil
	})
})

func startJournalBench(b *testing.B, dir string, mode journal.SyncMode) *container.Container {
	b.Helper()
	registerJournalBenchFunc()
	opts := container.Options{Workers: 4, Logger: quietLog()}
	if dir != "" {
		opts.DataDir = filepath.Join(dir, "files")
		opts.JournalDir = filepath.Join(dir, "journal")
		opts.WALSync = mode
		opts.SnapshotInterval = -1 // measure the WAL alone, not checkpoints
	}
	c, err := container.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{Name: "walecho",
			Inputs:  []core.Param{{Name: "x"}},
			Outputs: []core.Param{{Name: "y"}}},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"benchwal.echo"}`)},
	}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkJournalSubmit measures end-to-end job cost (submit through the
// manager, run a trivial native function, observe completion) with the
// journal off, fsync-batched, and fsync-per-append.  "off" is the pre-
// durability baseline; the batch mode is what -data-dir defaults to.
func BenchmarkJournalSubmit(b *testing.B) {
	modes := []struct {
		name string
		dir  bool
		mode journal.SyncMode
	}{
		{"off", false, journal.SyncOff},
		{"batch", true, journal.SyncBatch},
		{"always", true, journal.SyncAlways},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			dir := ""
			if m.dir {
				dir = b.TempDir()
			}
			c := startJournalBench(b, dir, m.mode)
			defer c.Close()
			jm := c.Jobs()
			ctx := context.Background()
			b.ResetTimer()
			start := time.Now()
			const burst = 16
			for i := 0; i < b.N; i++ {
				errs := make(chan error, burst)
				for j := 0; j < burst; j++ {
					x := float64(i*burst + j)
					go func() {
						job, err := jm.Submit(ctx, "walecho", core.Values{"x": x}, container.SubmitOptions{Owner: "bench"})
						if err == nil {
							_, err = jm.Wait(ctx, job.ID, 30*time.Second)
						}
						errs <- err
					}()
				}
				for j := 0; j < burst; j++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(b.N*burst)/elapsed.Seconds(), "jobs/s")
		})
	}
}

// BenchmarkJournalRecovery measures boot-time replay: a journal carrying
// ~10k finished jobs is rebuilt into a fresh container per iteration.
func BenchmarkJournalRecovery(b *testing.B) {
	const jobs = 10_000
	dir := b.TempDir()

	// Populate once: run the campaign to completion and close cleanly, so
	// every iteration replays the same ~10k-job journal.
	c := startJournalBench(b, dir, journal.SyncOff)
	jm := c.Jobs()
	ctx := context.Background()
	const wave = 256 // stay under the submit queue's backpressure bound
	for submitted := 0; submitted < jobs; submitted += wave {
		n := wave
		if jobs-submitted < n {
			n = jobs - submitted
		}
		errs := make(chan error, n)
		for j := 0; j < n; j++ {
			x := float64(submitted + j)
			go func() {
				job, err := jm.Submit(ctx, "walecho", core.Values{"x": x}, container.SubmitOptions{Owner: "bench"})
				if err == nil {
					_, err = jm.Wait(ctx, job.ID, 60*time.Second)
				}
				errs <- err
			}()
		}
		for j := 0; j < n; j++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	c.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c2 := startJournalBench(b, dir, journal.SyncOff)
		if err := c2.Recover(); err != nil {
			b.Fatal(err)
		}
		if got := len(c2.Jobs().List("walecho")); got != jobs {
			b.Fatalf("iteration %d restored %d jobs, want %d", i, got, jobs)
		}
		b.StopTimer()
		c2.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(jobs), "jobs/replay")
}
