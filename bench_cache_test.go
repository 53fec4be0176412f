// Result-reuse benchmarks for the computation cache (DESIGN.md §5e): the
// repeat-submit fast path, coalescing under concurrency, content-addressed
// file dedup and workflow block memoization.  Numbers land in BENCH_5.json.
package mathcloud_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/workflow"
)

// deployBenchWork deploys a service whose adapter does a nominal unit of
// numeric work (~1e6 flops), so the cold path reflects a cheap but real
// computation rather than pure queue overhead.
func deployBenchWork(b *testing.B, c *container.Container, name string, deterministic bool) {
	b.Helper()
	fn := "benchcache." + name
	adapter.RegisterFunc(fn, func(_ context.Context, in core.Values) (core.Values, error) {
		x, _ := in["x"].(float64)
		acc := x
		for i := 0; i < 1_000_000; i++ {
			acc = acc*1.0000001 + 1e-9
		}
		return core.Values{"y": acc}, nil
	})
	if err := c.Deploy(container.ServiceConfig{
		Description: core.ServiceDescription{
			Name:          name,
			Deterministic: deterministic,
			Inputs:        []core.Param{{Name: "x"}},
			Outputs:       []core.Param{{Name: "y"}},
		},
		Adapter: container.AdapterSpec{Kind: "native",
			Config: json.RawMessage(fmt.Sprintf(`{"function": %q}`, fn))},
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRepeatSubmit compares the same repeated computation without and
// with the computation cache: "cold" executes the adapter every time (no
// deterministic flag), "warm" is served from the memo table after the first
// run.  The warm/cold ratio is the headline result-reuse speedup.
func BenchmarkRepeatSubmit(b *testing.B) {
	run := func(b *testing.B, service string) {
		d := startBench(b, 8)
		deployBenchWork(b, d.Container, service, service == "det")
		jobs := d.Container.Jobs()
		// Prime: the first submission always executes.
		job, err := jobs.Submit(context.Background(), service, core.Values{"x": 1.0}, container.SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jobs.Wait(context.Background(), job.ID, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := jobs.Submit(context.Background(), service, core.Values{"x": 1.0}, container.SubmitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !job.State.Terminal() {
				if _, err := jobs.Wait(context.Background(), job.ID, 30*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, "plain") })
	b.Run("warm", func(b *testing.B) { run(b, "det") })
}

// BenchmarkConcurrentIdenticalSubmits measures cache-hit throughput under
// parallel submission of one identical request — the coalesced steady
// state of N clients asking for the same computation.
func BenchmarkConcurrentIdenticalSubmits(b *testing.B) {
	d := startBench(b, 8)
	deployBenchWork(b, d.Container, "det-par", true)
	jobs := d.Container.Jobs()
	job, err := jobs.Submit(context.Background(), "det-par", core.Values{"x": 2.0}, container.SubmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := jobs.Wait(context.Background(), job.ID, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			job, err := jobs.Submit(context.Background(), "det-par", core.Values{"x": 2.0}, container.SubmitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !job.State.Terminal() {
				if _, err := jobs.Wait(context.Background(), job.ID, 30*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFileStoreDedup compares ingesting 1 MiB payloads of unique
// content (every put writes a blob) against identical content (every put
// after the first is a refcount bump on the shared blob).
func BenchmarkFileStoreDedup(b *testing.B) {
	const size = 1 << 20
	payload := bytes.Repeat([]byte("mathcloud"), size/9+1)[:size]

	b.Run("unique", func(b *testing.B) {
		fs, err := container.NewFileStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, size)
		copy(buf, payload)
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Vary the first bytes so every payload is distinct content.
			copy(buf, fmt.Sprintf("%016d", i))
			if _, err := fs.PutBytes(buf, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("identical", func(b *testing.B) {
		fs, err := container.NewFileStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.PutBytes(payload, ""); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.PutBytes(payload, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkflowBlockMemo runs a three-service diamond workflow against
// live HTTP services, without and with the per-block result cache.  With
// the cache every service block of the repeat run is a hit, so the run
// collapses to graph traversal.
func BenchmarkWorkflowBlockMemo(b *testing.B) {
	run := func(b *testing.B, cache *workflow.BlockCache) {
		d := startBench(b, 8)
		deployBenchWork(b, d.Container, "wf-double", true)
		adapter.RegisterFunc("benchcache.wfadd", func(_ context.Context, in core.Values) (core.Values, error) {
			av, _ := in["a"].(float64)
			bv, _ := in["b"].(float64)
			return core.Values{"sum": av + bv}, nil
		})
		if err := d.Container.Deploy(container.ServiceConfig{
			Description: core.ServiceDescription{
				Name:          "wf-add",
				Deterministic: true,
				Inputs:        []core.Param{{Name: "a"}, {Name: "b"}},
				Outputs:       []core.Param{{Name: "sum"}},
			},
			Adapter: container.AdapterSpec{Kind: "native",
				Config: json.RawMessage(`{"function": "benchcache.wfadd"}`)},
		}); err != nil {
			b.Fatal(err)
		}
		doubleURI := d.Container.ServiceURI("wf-double")
		addURI := d.Container.ServiceURI("wf-add")
		wf := &workflow.Workflow{
			Name: "bench-diamond",
			Blocks: []workflow.Block{
				{ID: "x", Type: workflow.BlockInput, Name: "x"},
				{ID: "d1", Type: workflow.BlockService, Service: doubleURI},
				{ID: "d2", Type: workflow.BlockService, Service: doubleURI},
				{ID: "plus", Type: workflow.BlockService, Service: addURI},
				{ID: "result", Type: workflow.BlockOutput, Name: "result"},
			},
			Edges: []workflow.Edge{
				{From: workflow.PortRef{Block: "x", Port: "value"}, To: workflow.PortRef{Block: "d1", Port: "x"}},
				{From: workflow.PortRef{Block: "x", Port: "value"}, To: workflow.PortRef{Block: "d2", Port: "x"}},
				{From: workflow.PortRef{Block: "d1", Port: "y"}, To: workflow.PortRef{Block: "plus", Port: "a"}},
				{From: workflow.PortRef{Block: "d2", Port: "y"}, To: workflow.PortRef{Block: "plus", Port: "b"}},
				{From: workflow.PortRef{Block: "plus", Port: "sum"}, To: workflow.PortRef{Block: "result", Port: "value"}},
			},
		}
		inv := &workflow.HTTPInvoker{}
		eng := &workflow.Engine{Invoker: inv, Describer: inv, BlockCache: cache}
		compiled, err := workflow.Compile(wf, inv)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := eng.RunCompiled(ctx, compiled, core.Values{"x": 1.0}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunCompiled(ctx, compiled, core.Values{"x": 1.0}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-memo", func(b *testing.B) { run(b, nil) })
	b.Run("memo", func(b *testing.B) { run(b, workflow.NewBlockCache(0)) })
}
