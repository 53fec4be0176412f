package grid

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
	"mathcloud/internal/torque"
)

func newSite(t *testing.T, name string, reliability float64, vos ...string) *Site {
	t.Helper()
	if len(vos) == 0 {
		vos = []string{"mathcloud"}
	}
	c, err := torque.New(name, []torque.NodeSpec{{Name: name + "-n1", Slots: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &Site{Name: name, Cluster: c, VOs: vos, Reliability: reliability}
}

func TestJobRunsOnReliableGrid(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0), newSite(t, "b", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := atomic.Bool{}
	id, err := g.Submit(JobSpec{Name: "j", VO: "mathcloud", Run: func(ctx context.Context) error {
		ran.Store(true)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone || !ran.Load() {
		t.Errorf("state = %s ran = %v err = %s", info.State, ran.Load(), info.Error)
	}
	if info.Site != "a" && info.Site != "b" {
		t.Errorf("site = %q", info.Site)
	}
}

func TestBrokerRetriesUnreliableSites(t *testing.T) {
	// Site reliability 0: every submission fails, but with enough
	// retries the job must eventually abort with the retry message.
	g, err := New([]*Site{newSite(t, "flaky", 0.0)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	id, err := g.Submit(JobSpec{VO: "mathcloud", MaxRetries: 3, Run: func(ctx context.Context) error {
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateAborted {
		t.Errorf("state = %s, want ABORTED", info.State)
	}
	if info.Attempts != 4 { // initial + 3 retries
		t.Errorf("attempts = %d, want 4", info.Attempts)
	}
}

func TestRetriesEventuallySucceed(t *testing.T) {
	// 50% reliability with many retries: over this seed the job lands.
	g, err := New([]*Site{newSite(t, "meh", 0.5)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := g.Submit(JobSpec{VO: "mathcloud", MaxRetries: 20, Run: func(ctx context.Context) error {
		return nil
	}})
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Errorf("state = %s (%s)", info.State, info.Error)
	}
}

func TestVOFiltering(t *testing.T) {
	g, err := New([]*Site{newSite(t, "physics-only", 1.0, "physics")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(JobSpec{VO: "mathcloud", Run: func(ctx context.Context) error { return nil }}); err == nil {
		t.Error("job submitted to a grid with no matching VO")
	}
}

func TestPayloadErrorsAreNotRetried(t *testing.T) {
	attempts := atomic.Int32{}
	g, err := New([]*Site{newSite(t, "ok", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := g.Submit(JobSpec{VO: "mathcloud", MaxRetries: 5, Run: func(ctx context.Context) error {
		attempts.Add(1)
		return fmt.Errorf("application bug")
	}})
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateAborted {
		t.Errorf("state = %s", info.State)
	}
	if attempts.Load() != 1 {
		t.Errorf("payload ran %d times; application failures must not be resubmitted", attempts.Load())
	}
}

func TestCancelGridJob(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	id, _ := g.Submit(JobSpec{VO: "mathcloud", Run: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	<-started
	if err := g.Cancel(id); err != nil {
		t.Fatal(err)
	}
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled {
		t.Errorf("state = %s", info.State)
	}
}

func TestBrokerPrefersFreeSite(t *testing.T) {
	busy := newSite(t, "busy", 1.0)
	free := newSite(t, "free", 1.0)
	// Occupy every slot of the busy site.
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 4; i++ {
		if _, err := busy.Cluster.Submit(torque.JobSpec{Run: func(ctx context.Context) error {
			<-release
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New([]*Site{busy, free}, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := g.Submit(JobSpec{VO: "mathcloud", Run: func(ctx context.Context) error { return nil }})
	info, err := g.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Site != "free" {
		t.Errorf("broker chose %q, want the free site", info.Site)
	}
}

func TestSubmitValidation(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(JobSpec{VO: "mathcloud"}); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := g.Submit(JobSpec{Run: func(ctx context.Context) error { return nil }}); err == nil {
		t.Error("empty VO accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := New([]*Site{{Name: "x"}}, 1); err == nil {
		t.Error("site without cluster accepted")
	}
	bad := newSite(t, "bad", 1.0)
	bad.Reliability = 1.5
	if _, err := New([]*Site{bad}, 1); err == nil {
		t.Error("out-of-range reliability accepted")
	}
}

func TestGridAdapterEndToEnd(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0), newSite(t, "b", 0.9)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	registry := adapter.NewRegistry()
	registry.Register("grid", NewAdapterFactory(g, registry))
	adapter.RegisterFunc("gridtest.square", func(_ context.Context, in core.Values) (core.Values, error) {
		x, _ := in["x"].(float64)
		return core.Values{"y": x * x}, nil
	})
	a, err := registry.New("grid", json.RawMessage(`{
		"vo": "mathcloud", "walltime": "30s",
		"exec": {"kind": "native", "config": {"function": "gridtest.square"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var progress progressLog
	res, err := a.Invoke(context.Background(), &adapter.Request{
		JobID: "j", Service: "s", Inputs: core.Values{"x": 6.0},
		Reporter: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"] != 36.0 {
		t.Errorf("y = %v", res.Outputs["y"])
	}
	if len(progress) < 2 {
		t.Errorf("progress = %v, want submission and completion lines", progress)
	}
}

func TestGridAdapterConfigErrors(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	registry := adapter.NewRegistry()
	factory := NewAdapterFactory(g, registry)
	for _, cfg := range []string{
		`{"exec": {"kind": "native", "config": {}}}`,
		`{"vo": "x"}`,
		`{"vo": "x", "exec": {"kind": "grid", "config": {}}}`,
		`{"vo": "x", "walltime": "zzz", "exec": {"kind": "script", "config": {"script": "out.x=1"}}}`,
	} {
		if _, err := factory(json.RawMessage(cfg)); err == nil {
			t.Errorf("config %s accepted", cfg)
		}
	}
}

func TestGridAdapterCancellation(t *testing.T) {
	g, err := New([]*Site{newSite(t, "a", 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	registry := adapter.NewRegistry()
	registry.Register("grid", NewAdapterFactory(g, registry))
	adapter.RegisterFunc("gridtest.sleep", func(ctx context.Context, in core.Values) (core.Values, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return core.Values{}, nil
		}
	})
	a, err := registry.New("grid", json.RawMessage(`{
		"vo": "mathcloud",
		"exec": {"kind": "native", "config": {"function": "gridtest.sleep"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := a.Invoke(ctx, &adapter.Request{JobID: "j", Service: "s"}); err == nil {
		t.Fatal("cancelled invocation succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation hung")
	}
}

// progressLog is an adapter.Reporter that keeps the progress lines.
type progressLog []string

func (p *progressLog) Progress(m string)                   { *p = append(*p, m) }
func (p *progressLog) SetBlockState(string, core.JobState) {}
