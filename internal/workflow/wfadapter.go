package workflow

import (
	"context"
	"encoding/json"
	"fmt"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
)

// AdapterConfig is the internal service configuration of the workflow
// adapter: the workflow document itself.  Deploying a service with this
// adapter is how a workflow is "published as a new composite service".
type AdapterConfig struct {
	Workflow *Workflow `json:"workflow"`
}

// Adapter executes a workflow per request — the workflow runtime embedded
// in the workflow management service.
type Adapter struct {
	wf        *Workflow
	compiled  *Compiled
	invoker   Invoker
	describer Describer
	// blocks is the shared per-service-block result cache, non-nil when
	// the workflow opted in with Memo: repeated requests to the composite
	// service reuse sub-computations across runs.
	blocks *BlockCache
}

// NewAdapterFactory returns an adapter.Factory for kind "workflow" bound
// to the given invoker and describer.  Workflows are validated against the
// live service descriptions at deployment time, so broken compositions are
// rejected before they are published.
func NewAdapterFactory(inv Invoker, desc Describer) adapter.Factory {
	return func(config json.RawMessage) (adapter.Interface, error) {
		var cfg AdapterConfig
		if err := json.Unmarshal(config, &cfg); err != nil {
			return nil, fmt.Errorf("workflow adapter: %w", err)
		}
		if cfg.Workflow == nil {
			return nil, fmt.Errorf("workflow adapter: missing workflow document")
		}
		c, err := Compile(cfg.Workflow, desc)
		if err != nil {
			return nil, err
		}
		a := &Adapter{wf: cfg.Workflow, compiled: c, invoker: inv, describer: desc}
		if cfg.Workflow.Memo {
			a.blocks = NewBlockCache(0)
		}
		return a, nil
	}
}

// Kind implements adapter.Interface.
func (a *Adapter) Kind() string { return "workflow" }

// ActForInvoker is implemented by invokers that can issue calls on behalf
// of a delegated user (see HTTPInvoker.ActingFor).
type ActForInvoker interface {
	Invoker
	ActingFor(user string) Invoker
}

// Invoke implements adapter.Interface: it runs the workflow with the job's
// inputs, forwarding per-block states into the job resource so clients can
// observe the execution progress of each block.  When the job carries an
// authenticated owner and the invoker supports delegation, every service
// call of the run is made on the owner's behalf — the paper's common use
// case for the proxying mechanism.
func (a *Adapter) Invoke(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
	invoker := a.invoker
	if req.Owner != "" {
		if af, ok := invoker.(ActForInvoker); ok {
			invoker = af.ActingFor(req.Owner)
		}
	}
	engine := &Engine{
		Invoker:    invoker,
		Describer:  a.describer,
		BlockCache: a.blocks,
		// Forward block transitions into the job resource twice over:
		// the Blocks map carries the *current* state (what the editor
		// paints), and the job log keeps the full transition history, so
		// clients can verify e.g. that a block ran even when it finished
		// between two polls.
		OnBlockState: func(block string, state core.JobState) {
			req.SetBlockState(block, state)
			req.Progress(fmt.Sprintf("block %s: %s", block, state))
		},
	}
	outs, err := engine.RunCompiled(ctx, a.compiled, req.Inputs)
	if err != nil {
		return nil, err
	}
	return &adapter.Result{Outputs: outs}, nil
}

// Document returns the adapter's workflow document.
func (a *Adapter) Document() *Workflow { return a.wf }
