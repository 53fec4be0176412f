package torque

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mathcloud/internal/adapter"
)

// Registry holds named clusters so that service configurations can refer
// to a computing resource by name, the way the paper's internal service
// configuration points at a TORQUE installation.
type Registry struct {
	mu       sync.RWMutex
	clusters map[string]*Cluster
}

// NewClusterRegistry returns an empty cluster registry.
func NewClusterRegistry() *Registry {
	return &Registry{clusters: make(map[string]*Cluster)}
}

// Add registers a cluster under its name, replacing a previous entry.
func (r *Registry) Add(c *Cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clusters[c.Name()] = c
}

// Get looks up a cluster by name.
func (r *Registry) Get(name string) (*Cluster, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.clusters[name]
	return c, ok
}

// Names returns the sorted registered cluster names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.clusters))
	for n := range r.clusters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AdapterConfig is the internal service configuration of the Cluster
// adapter: which cluster and queue to submit to, the resource request, and
// the inner adapter that performs the actual work once the batch system
// schedules the job.
type AdapterConfig struct {
	// Cluster names a cluster in the registry.
	Cluster string `json:"cluster"`
	// Queue is the submission queue; empty selects the default queue.
	Queue string `json:"queue,omitempty"`
	// Slots is the per-job slot request (defaults to 1).
	Slots int `json:"slots,omitempty"`
	// Walltime is the per-job time limit, e.g. "30s"; empty uses the
	// queue limit.
	Walltime string `json:"walltime,omitempty"`
	// Exec describes the inner adapter executed on the cluster.
	Exec ExecConfig `json:"exec"`
}

// ExecConfig selects and configures the inner adapter of a Cluster or Grid
// adapter.
type ExecConfig struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config"`
}

// ClusterAdapter translates a service request into a batch job submitted to
// a simulated TORQUE cluster.
type ClusterAdapter struct {
	cluster  *Cluster
	queue    string
	slots    int
	walltime time.Duration
	inner    adapter.Interface
}

// NewAdapterFactory returns an adapter.Factory for kind "cluster" that
// resolves cluster names against the given registry and inner adapters
// against the given adapter registry.
func NewAdapterFactory(clusters *Registry, adapters *adapter.Registry) adapter.Factory {
	return func(config json.RawMessage) (adapter.Interface, error) {
		var cfg AdapterConfig
		if err := json.Unmarshal(config, &cfg); err != nil {
			return nil, fmt.Errorf("cluster adapter: %w", err)
		}
		cluster, ok := clusters.Get(cfg.Cluster)
		if !ok {
			return nil, fmt.Errorf("cluster adapter: unknown cluster %q (have %v)",
				cfg.Cluster, clusters.Names())
		}
		if cfg.Exec.Kind == "" {
			return nil, fmt.Errorf("cluster adapter: missing exec adapter")
		}
		if cfg.Exec.Kind == "cluster" || cfg.Exec.Kind == "grid" {
			return nil, fmt.Errorf("cluster adapter: exec adapter cannot be %q", cfg.Exec.Kind)
		}
		inner, err := adapters.New(cfg.Exec.Kind, cfg.Exec.Config)
		if err != nil {
			return nil, err
		}
		var walltime time.Duration
		if cfg.Walltime != "" {
			walltime, err = time.ParseDuration(cfg.Walltime)
			if err != nil {
				return nil, fmt.Errorf("cluster adapter: walltime: %w", err)
			}
		}
		return &ClusterAdapter{
			cluster:  cluster,
			queue:    cfg.Queue,
			slots:    cfg.Slots,
			walltime: walltime,
			inner:    inner,
		}, nil
	}
}

// Kind implements adapter.Interface.
func (a *ClusterAdapter) Kind() string { return "cluster" }

// Invoke implements adapter.Interface.  The request is turned into a batch
// job whose payload runs the inner adapter; the call then polls the batch
// system for completion, mirroring the real adapter's qstat loop.
func (a *ClusterAdapter) Invoke(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
	var (
		res *adapter.Result
		mu  sync.Mutex
	)
	id, err := a.cluster.Submit(JobSpec{
		Name:     req.Service + "/" + req.JobID,
		Queue:    a.queue,
		Slots:    a.slots,
		Walltime: a.walltime,
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
	req.Progress(fmt.Sprintf("submitted batch job %s to cluster %s", id, a.cluster.Name()))

	info, err := a.cluster.Wait(ctx, id)
	if err != nil {
		// The service job was cancelled: propagate the cancellation to
		// the batch system before returning.
		_ = a.cluster.Cancel(id)
		return nil, err
	}
	switch info.State {
	case StateComplete:
		mu.Lock()
		defer mu.Unlock()
		req.Progress(fmt.Sprintf("batch job %s completed on node %s", id, info.Node))
		return res, nil
	case StateCancelled:
		return nil, context.Canceled
	default:
		return nil, fmt.Errorf("cluster adapter: batch job %s failed: %s", id, info.Error)
	}
}
