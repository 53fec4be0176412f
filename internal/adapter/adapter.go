// Package adapter defines the pluggable adapter interface of the Everest
// service container and its universal adapter implementations.
//
// Adapters are the components that actually process service requests.  The
// container converts an accepted request into a job, stages file parameters
// into a scratch directory and hands the job to the adapter named in the
// service configuration.  The paper ships four universal adapters: Command
// (run an external program), Java (invoke a class in-process — here Native,
// a registered Go function), Cluster (submit a TORQUE batch job) and Grid
// (submit a gLite grid job).  This package holds the interface, the
// registry, and the infrastructure-free adapters; the Cluster and Grid
// adapters live next to their simulators in internal/torque and
// internal/grid.
package adapter

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"mathcloud/internal/core"
)

// Request carries one job into an adapter.
type Request struct {
	// JobID identifies the job, for logging and cancellation bookkeeping.
	JobID string
	// Service is the name of the service the job belongs to.
	Service string
	// Owner is the effective identity that submitted the job ("" when
	// the container runs unsecured).  Composite adapters use it to act
	// on the user's behalf when calling downstream services.
	Owner string
	// Inputs holds the request parameter values.  File-reference values
	// have been resolved: for each such parameter Files maps the
	// parameter name to a local path with the staged content.  The map is
	// the job resource's own and is read-only: an adapter that needs to
	// change inputs copies them first.  NativeAdapter, which runs
	// arbitrary registered code, always does; the script adapter's
	// interpreter does only when its program can write through `in`, and
	// otherwise reads the map in place.  Outputs may therefore share
	// nested values with Inputs, which is safe because both are read-only
	// once the job has landed.
	Inputs core.Values
	// Files maps file-valued input parameter names to staged local paths.
	Files map[string]string
	// WorkDir is a scratch directory private to the job.  Adapters may
	// create output files here; paths returned in Result.Files must be
	// inside it.
	WorkDir string
	// Reporter, when set, receives what the adapter reports through the
	// request's Progress and SetBlockState methods while the job runs; the
	// container sets it to the running job itself.  Adapters call the
	// methods, which do nothing when Reporter is nil.
	Reporter Reporter
}

// Reporter is the job resource's side of an adapter's running reports.
type Reporter interface {
	// Progress attaches a human-readable progress line to the job.
	Progress(message string)
	// SetBlockState publishes a composite (workflow) adapter's per-block
	// execution state through the job resource, which is how the
	// workflow editor paints block status during a run.
	SetBlockState(block string, state core.JobState)
}

// Progress reports a human-readable progress line of a long-running job to
// the request's Reporter, if any.
func (r *Request) Progress(message string) {
	if r.Reporter != nil {
		r.Reporter.Progress(message)
	}
}

// SetBlockState reports a block's execution state to the request's
// Reporter, if any.
func (r *Request) SetBlockState(block string, state core.JobState) {
	if r.Reporter != nil {
		r.Reporter.SetBlockState(block, state)
	}
}

// Result carries the outputs of a successfully processed job.
type Result struct {
	// Outputs holds inline output parameter values.  The map is handed
	// over: the container may keep it as the job's outputs, so the
	// adapter must not write to it (or share it with anything that does)
	// after returning.
	Outputs core.Values
	// Files maps output parameter names to local paths whose content the
	// container publishes as file resources, replacing the parameter
	// value with a file reference.
	Files map[string]string
}

// Interface is the standard adapter contract: the container passes request
// parameters in, monitors the job and receives results.
type Interface interface {
	// Kind returns the adapter type name ("command", "native", ...).
	Kind() string
	// Invoke processes one job.  It must honour ctx cancellation, which
	// the container uses to implement the DELETE (cancel) method of the
	// job resource.
	Invoke(ctx context.Context, req *Request) (*Result, error)
}

// BatchItem is the outcome of one request of a batched invocation: exactly
// one of Result and Err is set.  A failed item fails only its own job; the
// rest of the batch is unaffected.
type BatchItem struct {
	Result *Result
	Err    error
}

// BatchInterface is the micro-batching extension of the adapter contract:
// adapters that can amortise per-invocation overhead — process start-up,
// solver warm-up, model load — across several requests of one service
// implement it in addition to Interface.  The container's worker pool
// drains up to its configured batch size of queued jobs of a service that
// declares "batch": true into a single InvokeBatch call.
//
// InvokeBatch must return one BatchItem per request, in request order; a
// non-nil error return instead fails the whole batch (every job).  It must
// honour ctx cancellation, which covers the batch as a whole — individual
// job cancellation is handled by the container, which discards that job's
// item on return.
type BatchInterface interface {
	InvokeBatch(ctx context.Context, reqs []*Request) ([]BatchItem, error)
}

// WorkDirCapability is optionally implemented by adapters that can report
// whether they use the per-job scratch directory.  The container creates
// (and afterwards removes) a directory per job unless the adapter reports
// it never touches one — two filesystem round trips that dominate the cost
// of short in-process computations, and exactly the overhead a wide
// campaign of small jobs pays a thousand times over.  Adapters that do not
// implement the interface are assumed to need the directory.
type WorkDirCapability interface {
	// NeedsWorkDir reports whether Invoke/InvokeBatch reads Request.WorkDir.
	NeedsWorkDir() bool
}

// Factory builds an adapter instance from the internal service
// configuration (the non-public half of a service's configuration file).
type Factory func(config json.RawMessage) (Interface, error)

// Registry maps adapter type names to factories.  A container owns one
// registry; tests may build private ones.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns a registry pre-populated with the adapters that have
// no external dependencies: command, native, script and chaos (the
// fault-injection adapter used by robustness tests).
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.Register("command", NewCommandAdapter)
	r.Register("native", NewNativeAdapter)
	r.Register("script", NewScriptAdapter)
	r.Register("chaos", NewChaosAdapter)
	return r
}

// Register adds a factory under the given adapter type name, replacing any
// previous registration.
func (r *Registry) Register(kind string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[kind] = f
}

// New instantiates an adapter of the given kind with its configuration.
func (r *Registry) New(kind string, config json.RawMessage) (Interface, error) {
	r.mu.RLock()
	f, ok := r.factories[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("adapter: unknown adapter kind %q (have %v)", kind, r.Kinds())
	}
	a, err := f(config)
	if err != nil {
		return nil, fmt.Errorf("adapter: configure %q: %w", kind, err)
	}
	return a, nil
}

// Kinds returns the sorted registered adapter type names.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kinds := make([]string, 0, len(r.factories))
	for k := range r.factories {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
