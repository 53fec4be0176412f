package adapter

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mathcloud/internal/core"
)

// Func is the signature of an in-process computational function, the Go
// analogue of the paper's Java adapter target interface.  Implementations
// receive the request inputs and return the job outputs.
type Func func(ctx context.Context, inputs core.Values) (core.Values, error)

// RequestFunc is a file-aware in-process computational function: it
// receives the full adapter request (including staged input files and the
// scratch directory) and may return output files, which the container
// publishes as file resources.  Services that move large data — the
// paper's matrices of "hundreds of megabytes" — implement this form.
type RequestFunc func(ctx context.Context, req *Request) (*Result, error)

// BatchFunc is the micro-batched form of an in-process computational
// function: it receives the inputs of several requests at once and returns
// one output map (or one error) per request, in request order.  A batch
// function coexists with the single-request Func of the same name — the
// adapter uses whichever form matches how the container dispatched the work.
type BatchFunc func(ctx context.Context, batch []core.Values) ([]core.Values, []error)

// nativeFuncs is the process-wide registry of invocable functions.  A
// service configuration refers to functions by name, mirroring the Java
// adapter's "name of the corresponding class".
var nativeFuncs = struct {
	sync.RWMutex
	m map[string]Func
	r map[string]RequestFunc
	b map[string]BatchFunc
}{m: make(map[string]Func), r: make(map[string]RequestFunc), b: make(map[string]BatchFunc)}

// RegisterFunc makes fn available to Native adapters under the given name.
// It replaces a previous registration with the same name, which keeps test
// packages independent.
func RegisterFunc(name string, fn Func) {
	if fn == nil {
		panic("adapter: RegisterFunc with nil function")
	}
	nativeFuncs.Lock()
	defer nativeFuncs.Unlock()
	nativeFuncs.m[name] = fn
	delete(nativeFuncs.r, name)
	delete(nativeFuncs.b, name)
}

// RegisterRequestFunc makes a file-aware function available to Native
// adapters under the given name, replacing any previous registration of
// either kind.
func RegisterRequestFunc(name string, fn RequestFunc) {
	if fn == nil {
		panic("adapter: RegisterRequestFunc with nil function")
	}
	nativeFuncs.Lock()
	defer nativeFuncs.Unlock()
	nativeFuncs.r[name] = fn
	delete(nativeFuncs.m, name)
	delete(nativeFuncs.b, name)
}

// RegisterBatchFunc adds a micro-batched form for an already registered
// function name.  It does not replace the single-request registration — the
// Native adapter still needs Func or RequestFunc for unbatched dispatch —
// it only enables InvokeBatch to process several requests in one call.
func RegisterBatchFunc(name string, fn BatchFunc) {
	if fn == nil {
		panic("adapter: RegisterBatchFunc with nil function")
	}
	nativeFuncs.Lock()
	defer nativeFuncs.Unlock()
	nativeFuncs.b[name] = fn
}

// LookupBatchFunc returns the registered batch function with the given name.
func LookupBatchFunc(name string) (BatchFunc, bool) {
	nativeFuncs.RLock()
	defer nativeFuncs.RUnlock()
	fn, ok := nativeFuncs.b[name]
	return fn, ok
}

// LookupFunc returns the registered function with the given name.
func LookupFunc(name string) (Func, bool) {
	nativeFuncs.RLock()
	defer nativeFuncs.RUnlock()
	fn, ok := nativeFuncs.m[name]
	return fn, ok
}

// LookupRequestFunc returns the registered file-aware function with the
// given name.
func LookupRequestFunc(name string) (RequestFunc, bool) {
	nativeFuncs.RLock()
	defer nativeFuncs.RUnlock()
	fn, ok := nativeFuncs.r[name]
	return fn, ok
}

// Funcs returns the sorted names of all registered native functions.
func Funcs() []string {
	nativeFuncs.RLock()
	defer nativeFuncs.RUnlock()
	names := make([]string, 0, len(nativeFuncs.m)+len(nativeFuncs.r))
	for name := range nativeFuncs.m {
		names = append(names, name)
	}
	for name := range nativeFuncs.r {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NativeConfig is the internal service configuration of the Native adapter.
type NativeConfig struct {
	// Function names the registered Func to invoke.
	Function string `json:"function"`
	// SimulatedSlowdown, when positive, makes the adapter sleep
	// SimulatedSlowdown × t after a call that computed for t.  It
	// models a service whose backing hardware is that much slower than
	// the local substrate: sleeps overlap across concurrent jobs the
	// way work on distinct remote machines does, while local CPU work
	// serializes.  The performance experiments use it to reproduce the
	// paper's multi-node timing behaviour on a single test machine; it
	// is off (0) by default.
	SimulatedSlowdown float64 `json:"simulatedSlowdown,omitempty"`
}

// NativeAdapter performs an invocation of a registered Go function inside
// the current process, passing request parameters in the call.
type NativeAdapter struct {
	name     string
	fn       Func
	reqFn    RequestFunc
	batchFn  BatchFunc
	slowdown float64
}

// NewNativeAdapter builds a NativeAdapter from its JSON configuration.
func NewNativeAdapter(config json.RawMessage) (Interface, error) {
	var cfg NativeConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return nil, fmt.Errorf("native adapter: %w", err)
	}
	if cfg.SimulatedSlowdown < 0 {
		return nil, fmt.Errorf("native adapter: negative simulatedSlowdown")
	}
	a := &NativeAdapter{name: cfg.Function, slowdown: cfg.SimulatedSlowdown}
	a.batchFn, _ = LookupBatchFunc(cfg.Function)
	if fn, ok := LookupFunc(cfg.Function); ok {
		a.fn = fn
		return a, nil
	}
	if fn, ok := LookupRequestFunc(cfg.Function); ok {
		a.reqFn = fn
		return a, nil
	}
	return nil, fmt.Errorf("native adapter: function %q is not registered (have %v)",
		cfg.Function, Funcs())
}

// Kind implements Interface.
func (a *NativeAdapter) Kind() string { return "native" }

// NeedsWorkDir implements WorkDirCapability: only request-form functions
// receive the Request (and with it WorkDir); plain value functions never
// see a path, so their jobs can skip scratch-directory creation entirely.
func (a *NativeAdapter) NeedsWorkDir() bool { return a.reqFn != nil }

// call dispatches to whichever function form is registered.  A registered
// function is arbitrary code, so it gets its own copy of the input map
// (Request.Inputs is shared with the job resource and read-only).
func (a *NativeAdapter) call(ctx context.Context, req *Request) (*Result, error) {
	if a.reqFn != nil {
		own := *req
		own.Inputs = req.Inputs.Clone()
		return a.reqFn(ctx, &own)
	}
	outputs, err := a.fn(ctx, req.Inputs.Clone())
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: outputs}, nil
}

// Invoke implements Interface.
func (a *NativeAdapter) Invoke(ctx context.Context, req *Request) (*Result, error) {
	if a.slowdown <= 0 {
		res, err := a.call(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("native adapter: %s: %w", a.name, err)
		}
		return res, nil
	}
	// Simulated slowdown: measure the function's own compute and sleep
	// proportionally.  Prefer per-thread CPU time (with the goroutine
	// pinned to its thread), so concurrent jobs time-slicing one CPU do
	// not inflate each other's simulated sleeps.
	runtime.LockOSThread()
	cpu0, cpuOK := threadCPUTime()
	wall0 := time.Now()
	res, err := a.call(ctx, req)
	var compute time.Duration
	if cpu1, ok := threadCPUTime(); cpuOK && ok {
		compute = cpu1 - cpu0
	} else {
		compute = time.Since(wall0)
	}
	runtime.UnlockOSThread()
	if err != nil {
		return nil, fmt.Errorf("native adapter: %s: %w", a.name, err)
	}
	extra := time.Duration(a.slowdown * float64(compute))
	select {
	case <-time.After(extra):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return res, nil
}

// InvokeBatch implements BatchInterface.  When a BatchFunc is registered
// under the adapter's function name, the whole batch is processed in one
// call — that is where per-invocation overhead (and, under simulated
// slowdown, the proportional sleep) is amortised.  Without one it degrades
// to per-request Invoke calls, preserving semantics at single-request cost.
func (a *NativeAdapter) InvokeBatch(ctx context.Context, reqs []*Request) ([]BatchItem, error) {
	items := make([]BatchItem, len(reqs))
	if a.batchFn == nil {
		for i, req := range reqs {
			res, err := a.Invoke(ctx, req)
			items[i] = BatchItem{Result: res, Err: err}
		}
		return items, nil
	}
	batch := make([]core.Values, len(reqs))
	for i, req := range reqs {
		batch[i] = req.Inputs.Clone()
	}
	var outs []core.Values
	var errs []error
	runBatch := func() error {
		outs, errs = a.batchFn(ctx, batch)
		if len(outs) != len(reqs) || len(errs) != len(reqs) {
			return fmt.Errorf("native adapter: %s: batch function returned %d outputs and %d errors for %d requests",
				a.name, len(outs), len(errs), len(reqs))
		}
		return nil
	}
	if a.slowdown <= 0 {
		if err := runBatch(); err != nil {
			return nil, err
		}
	} else {
		runtime.LockOSThread()
		cpu0, cpuOK := threadCPUTime()
		wall0 := time.Now()
		err := runBatch()
		var compute time.Duration
		if cpu1, ok := threadCPUTime(); cpuOK && ok {
			compute = cpu1 - cpu0
		} else {
			compute = time.Since(wall0)
		}
		runtime.UnlockOSThread()
		if err != nil {
			return nil, err
		}
		extra := time.Duration(a.slowdown * float64(compute))
		select {
		case <-time.After(extra):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for i := range reqs {
		if errs[i] != nil {
			items[i] = BatchItem{Err: fmt.Errorf("native adapter: %s: %w", a.name, errs[i])}
		} else {
			items[i] = BatchItem{Result: &Result{Outputs: outs[i]}}
		}
	}
	return items, nil
}
