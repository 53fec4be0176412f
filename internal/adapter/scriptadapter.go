package adapter

import (
	"context"
	"encoding/json"
	"fmt"

	"mathcloud/internal/core"
	"mathcloud/internal/script"
)

// ScriptConfig is the internal service configuration of the Script adapter,
// which runs a custom MCScript action.  It is the platform's replacement
// for the paper's custom workflow actions written in JavaScript or Python.
type ScriptConfig struct {
	// Script is the MCScript source.  It reads inputs from `in` and
	// publishes outputs by assigning fields of `out`.  A script that can
	// write through `in` (an assignment into anything but a field or
	// index of `out`, or a rebinding of `out`) runs on a copy of the
	// request's inputs; any other reads them in place, so its outputs
	// may share nested values with them.
	Script string `json:"script"`
	// StepLimit optionally overrides the evaluation step budget.
	StepLimit int `json:"stepLimit,omitempty"`
}

// ScriptAdapter executes a compiled MCScript per request.
type ScriptAdapter struct {
	program   *script.Program
	stepLimit int
}

// NewScriptAdapter builds a ScriptAdapter from its JSON configuration,
// compiling the script once at deployment time so syntax errors surface
// when the service is configured, not when it is called.
func NewScriptAdapter(config json.RawMessage) (Interface, error) {
	var cfg ScriptConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return nil, fmt.Errorf("script adapter: %w", err)
	}
	prog, err := script.Parse(cfg.Script)
	if err != nil {
		return nil, fmt.Errorf("script adapter: %w", err)
	}
	limit := cfg.StepLimit
	if limit <= 0 {
		limit = script.DefaultStepLimit
	}
	return &ScriptAdapter{program: prog, stepLimit: limit}, nil
}

// Kind implements Interface.
func (a *ScriptAdapter) Kind() string { return "script" }

// NeedsWorkDir implements WorkDirCapability: a script sees only its input
// values, never the filesystem.
func (a *ScriptAdapter) NeedsWorkDir() bool { return false }

// Invoke implements Interface.  Script execution is CPU-bound and bounded
// by the step limit, so cancellation is checked before starting.
func (a *ScriptAdapter) Invoke(ctx context.Context, req *Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, _, err := a.program.RunLimited(map[string]any(req.Inputs), a.stepLimit)
	if err != nil {
		return nil, fmt.Errorf("script adapter: %w", err)
	}
	return &Result{Outputs: core.Values(out)}, nil
}
