package workflow

import (
	"context"
	"fmt"
	"time"

	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
)

// HTTPInvoker calls services through the unified REST API using the
// platform client.  It implements both Invoker and Describer, so a single
// value configures an Engine for real distributed execution.  Calls inherit
// the client's retry policy (rest.DefaultRetry unless overridden), so a
// workflow block survives dropped connections and transient 503 overload
// answers from a busy container instead of failing the whole workflow.
// Blocks that outlive the submit's long-poll window are followed over the
// job's SSE event stream (client.Service.WaitSSE): a running DAG holds one
// idle connection per in-flight remote block and is notified of completion
// by push, instead of re-polling every block — with transparent fallback
// to the long-poll loop against servers that expose no event streams.
// Description fetches go through the client's conditional-GET description
// cache: repeated workflow validations revalidate with If-None-Match and
// reuse the cached decoded description on a 304 instead of re-transferring
// and re-decoding it per run.
type HTTPInvoker struct {
	// Client is the underlying platform client; nil uses a default one.
	Client *client.Client
	// DescribeTimeout bounds description fetches during validation
	// (default 10 s).
	DescribeTimeout time.Duration
}

func (i *HTTPInvoker) platformClient() *client.Client {
	if i.Client != nil {
		return i.Client
	}
	return client.Default()
}

// Call implements Invoker.
func (i *HTTPInvoker) Call(ctx context.Context, serviceURI string, inputs core.Values) (core.Values, error) {
	return i.platformClient().Service(serviceURI).Call(ctx, inputs)
}

// ActingFor returns a copy of the invoker whose calls carry the delegated
// user identity — the paper's proxying mechanism: the workflow service,
// authenticated with its own credentials, invokes the services involved in
// a workflow on behalf of the user who invoked it.  The copy shares the
// invoker's own credentials (client certificate or bearer token) but adds
// the Act-For header.
func (i *HTTPInvoker) ActingFor(user string) Invoker {
	base := i.platformClient()
	delegated := &client.Client{
		HTTP:       base.HTTP,
		Token:      base.Token,
		ActFor:     user,
		WaitWindow: base.WaitWindow,
		MinPoll:    base.MinPoll,
		Retry:      base.Retry,
	}
	return &HTTPInvoker{Client: delegated, DescribeTimeout: i.DescribeTimeout}
}

// Describe implements Describer.
func (i *HTTPInvoker) Describe(serviceURI string) (core.ServiceDescription, error) {
	timeout := i.DescribeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return i.platformClient().Service(serviceURI).Describe(ctx)
}

// LocalInvoker is the in-process invocation fast path.  When a service URI
// is served by a container running in the same process (per the container
// registry populated by SetBaseURL), the call is dispatched straight into
// that container's job manager — no HTTP round trip, no JSON re-marshal,
// and completion is observed on the job's done channel rather than a poll
// window.  Every other URI falls back to the HTTP invoker, so a workflow
// can freely mix local and remote blocks.
//
// Guarded containers are never short-cut: their authentication and
// authorization checks live in the HTTP layer, so those calls take the
// fallback path with the invoker's credentials.
type LocalInvoker struct {
	// Fallback handles URIs not served in-process; nil uses a default
	// HTTPInvoker over the shared tuned transport.
	Fallback Invoker
	// actFor is the delegated identity recorded as the owner of locally
	// dispatched jobs (see ActingFor).
	actFor string
}

// NewLocalInvoker returns a LocalInvoker with the given fallback (nil for
// the default HTTP invoker).
func NewLocalInvoker(fallback Invoker) *LocalInvoker {
	return &LocalInvoker{Fallback: fallback}
}

func (i *LocalInvoker) fallback() Invoker {
	if i.Fallback != nil {
		return i.Fallback
	}
	return &HTTPInvoker{}
}

// Call implements Invoker.
func (i *LocalInvoker) Call(ctx context.Context, serviceURI string, inputs core.Values) (core.Values, error) {
	c, name, ok := container.LookupLocal(serviceURI)
	if !ok || c.HasGuard() {
		return i.fallback().Call(ctx, serviceURI, inputs)
	}
	jobs := c.Jobs()
	// Submit carries the caller's request ID into the dispatched job, so
	// the in-process fast path preserves the trace exactly like an HTTP hop
	// would via the X-Request-ID header.
	job, err := jobs.Submit(ctx, name, inputs, container.SubmitOptions{Owner: i.actFor})
	if err != nil {
		return nil, err
	}
	done, err := jobs.Wait(ctx, job.ID, 0)
	if err != nil {
		// The caller gave up; cancel the dispatched job so it does not
		// keep burning a worker slot.
		_, _ = jobs.Delete(job.ID)
		return nil, err
	}
	switch done.State {
	case core.StateDone:
		return done.Outputs, nil
	case core.StateCancelled:
		return nil, fmt.Errorf("workflow: job %s on %s was cancelled", done.ID, serviceURI)
	default:
		return nil, fmt.Errorf("workflow: job %s on %s failed: %s", done.ID, serviceURI, done.Error)
	}
}

// ActingFor implements ActForInvoker: locally dispatched jobs record the
// delegated user as their owner, and fallback calls are delegated through
// the fallback's own ActingFor (the Act-For header for HTTP).
func (i *LocalInvoker) ActingFor(user string) Invoker {
	fb := i.Fallback
	if af, ok := i.fallback().(ActForInvoker); ok {
		fb = af.ActingFor(user)
	}
	return &LocalInvoker{Fallback: fb, actFor: user}
}

// Describe implements Describer, resolving local services without HTTP —
// the in-process analogue of the client's description cache: a local hit
// reads the deployed description straight from the container, and misses
// fall back to the HTTP describer whose client revalidates its cached copy
// via conditional GET.
func (i *LocalInvoker) Describe(serviceURI string) (core.ServiceDescription, error) {
	if c, name, ok := container.LookupLocal(serviceURI); ok && !c.HasGuard() {
		return c.Describe(name)
	}
	if d, ok := i.fallback().(Describer); ok {
		return d.Describe(serviceURI)
	}
	return (&HTTPInvoker{}).Describe(serviceURI)
}
