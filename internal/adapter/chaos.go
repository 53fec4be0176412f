package adapter

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mathcloud/internal/core"
)

// ChaosConfig is the internal service configuration of the Chaos adapter.
type ChaosConfig struct {
	// Mode selects the default failure behaviour: "ok" (succeed), "fail"
	// (return an error), "panic" (panic in the worker), "hang" (block
	// until cancelled) or "sleep" (sleep Delay, then succeed).
	Mode string `json:"mode,omitempty"`
	// Delay is the sleep duration of the "sleep" mode.
	Delay core.Duration `json:"delay,omitempty"`
	// Message customises the error or panic text.
	Message string `json:"message,omitempty"`
}

// ChaosAdapter is a fault-injection adapter used by the robustness test
// suites: it fails, panics, hangs or stalls on demand, so tests can prove
// that every job reaches a terminal state no matter how its adapter
// misbehaves.  A request may override the configured mode through the
// "mode" input parameter, which lets one deployed chaos service exercise
// every failure path.
type ChaosAdapter struct {
	cfg ChaosConfig
}

// NewChaosAdapter builds a ChaosAdapter from its JSON configuration.
func NewChaosAdapter(config json.RawMessage) (Interface, error) {
	var cfg ChaosConfig
	if len(config) > 0 {
		if err := json.Unmarshal(config, &cfg); err != nil {
			return nil, fmt.Errorf("chaos adapter: %w", err)
		}
	}
	switch cfg.Mode {
	case "", "ok", "fail", "panic", "hang", "sleep":
	default:
		return nil, fmt.Errorf("chaos adapter: unknown mode %q", cfg.Mode)
	}
	return &ChaosAdapter{cfg: cfg}, nil
}

// Kind implements Interface.
func (a *ChaosAdapter) Kind() string { return "chaos" }

// NeedsWorkDir implements WorkDirCapability: no mode reads Request.WorkDir.
func (a *ChaosAdapter) NeedsWorkDir() bool { return false }

// Invoke implements Interface.
func (a *ChaosAdapter) Invoke(ctx context.Context, req *Request) (*Result, error) {
	mode := a.cfg.Mode
	if m, ok := req.Inputs["mode"].(string); ok && m != "" {
		mode = m
	}
	message := a.cfg.Message
	if message == "" {
		message = "chaos adapter: injected failure"
	}
	switch mode {
	case "fail":
		return nil, errors.New(message)
	case "panic":
		panic(message)
	case "hang":
		<-ctx.Done()
		return nil, ctx.Err()
	case "sleep":
		t := time.NewTimer(a.cfg.Delay.Std())
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return &Result{Outputs: core.Values{"ok": true}}, nil
}
