package grid

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/torque"
)

// AdapterConfig is the internal service configuration of the Grid adapter:
// the virtual organisation, the resource request, the retry budget and the
// inner adapter executed once the job lands on a site.  In the paper this
// configuration carries the VO name and a grid job description file; the
// structure is preserved.
type AdapterConfig struct {
	// VO is the virtual organisation the job is submitted under.
	VO string `json:"vo"`
	// Slots and Walltime are the resource request.
	Slots    int    `json:"slots,omitempty"`
	Walltime string `json:"walltime,omitempty"`
	// Retries bounds broker resubmissions (default 2).
	Retries *int `json:"retries,omitempty"`
	// Exec describes the inner adapter executed on the selected site.
	Exec torque.ExecConfig `json:"exec"`
}

// Adapter translates a service request into a grid job.
type Adapter struct {
	infra    *Infrastructure
	vo       string
	slots    int
	walltime time.Duration
	retries  int
	inner    adapter.Interface
}

// NewAdapterFactory returns an adapter.Factory for kind "grid" bound to the
// given infrastructure.
func NewAdapterFactory(infra *Infrastructure, adapters *adapter.Registry) adapter.Factory {
	return func(config json.RawMessage) (adapter.Interface, error) {
		var cfg AdapterConfig
		if err := json.Unmarshal(config, &cfg); err != nil {
			return nil, fmt.Errorf("grid adapter: %w", err)
		}
		if cfg.VO == "" {
			return nil, fmt.Errorf("grid adapter: missing vo")
		}
		if cfg.Exec.Kind == "" {
			return nil, fmt.Errorf("grid adapter: missing exec adapter")
		}
		if cfg.Exec.Kind == "cluster" || cfg.Exec.Kind == "grid" {
			return nil, fmt.Errorf("grid adapter: exec adapter cannot be %q", cfg.Exec.Kind)
		}
		inner, err := adapters.New(cfg.Exec.Kind, cfg.Exec.Config)
		if err != nil {
			return nil, err
		}
		var walltime time.Duration
		if cfg.Walltime != "" {
			walltime, err = time.ParseDuration(cfg.Walltime)
			if err != nil {
				return nil, fmt.Errorf("grid adapter: walltime: %w", err)
			}
		}
		retries := 2
		if cfg.Retries != nil {
			retries = *cfg.Retries
		}
		return &Adapter{
			infra:    infra,
			vo:       cfg.VO,
			slots:    cfg.Slots,
			walltime: walltime,
			retries:  retries,
			inner:    inner,
		}, nil
	}
}

// Kind implements adapter.Interface.
func (a *Adapter) Kind() string { return "grid" }

// Invoke implements adapter.Interface.
func (a *Adapter) Invoke(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
	var (
		res *adapter.Result
		mu  sync.Mutex
	)
	id, err := a.infra.Submit(JobSpec{
		Name:       req.Service + "/" + req.JobID,
		VO:         a.vo,
		Slots:      a.slots,
		Walltime:   a.walltime,
		MaxRetries: a.retries,
		Run: func(jobCtx context.Context) error {
			r, err := a.inner.Invoke(jobCtx, req)
			if err != nil {
				return err
			}
			mu.Lock()
			res = r
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	req.Progress(fmt.Sprintf("submitted grid job %s (VO %s)", id, a.vo))

	info, err := a.infra.Wait(ctx, id)
	if err != nil {
		_ = a.infra.Cancel(id)
		return nil, err
	}
	switch info.State {
	case StateDone:
		mu.Lock()
		defer mu.Unlock()
		req.Progress(fmt.Sprintf("grid job %s done at site %s after %d attempt(s)",
			id, info.Site, info.Attempts))
		return res, nil
	case StateCancelled:
		return nil, context.Canceled
	default:
		return nil, fmt.Errorf("%w: %s", ErrAborted, info.Error)
	}
}
