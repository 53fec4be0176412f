// Package obs is the observability plane of the MathCloud platform: a
// dependency-free metrics registry with Prometheus text-format exposition,
// request-ID tracing propagated across the unified REST API, structured
// slog-based request/job logging, and opt-in pprof wiring.
//
// The paper's Everest container manages queues, worker pools and adapters
// but gives operators no visibility into them; production REST gateways for
// scientific computing (FirecREST) treat monitoring as a first-class
// subsystem, and the UWS job pattern records per-phase timestamps on every
// job.  This package supplies both: every layer — the container's HTTP
// handlers, the job manager, the client retry policy, the description cache
// and the catalogue sweeps — records into one process-wide registry served
// at GET /metrics (Prometheus text) and GET /status (JSON with aggregate
// percentiles).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide instrumentation switch.  Disabling it turns
// every Observe/Add/Inc into a near-free no-op, which is how the overhead
// ablation (BENCH_4.json) measures the instrumented-vs-bare hot paths
// inside one binary.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled switches metric recording on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return enabled.Load() }

// Standard bucket layouts.  LatencyBuckets suit sub-second HTTP handling
// and probe round trips; DurationBuckets stretch to minutes for job
// queue-wait and run times.
var (
	LatencyBuckets  = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	DurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}
)

// metricType is the Prometheus family type.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry holds metric families.  All methods are safe for concurrent
// use; the recording paths are lock-free after the first lookup.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	start    time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), start: time.Now()}
}

// Default is the process-wide registry that package-level constructors
// register into and that MetricsHandler/StatusHandler expose.
var Default = NewRegistry()

// family is one named metric family with zero or more labelled children.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]*child
}

// child is one (label-set, value) series.  Counter and gauge values are
// float64 bits in bits; histograms use the counts/hcount/sumBits trio.
type child struct {
	labels  string // rendered `k="v",…` (empty for plain metrics)
	touched atomic.Bool
	bits    atomic.Uint64

	bounds  []float64
	counts  []atomic.Uint64 // per-bucket (non-cumulative); last is +Inf
	hcount  atomic.Uint64
	sumBits atomic.Uint64
}

// touch marks the series for exposition.  Labeled children start hidden so
// callers can pre-resolve full label cross products for allocation-free
// recording without flooding /metrics with never-used zero series; the
// series appears on its first update, like a lazy client vector.
func (c *child) touch() {
	if !c.touched.Load() {
		c.touched.Store(true)
	}
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// family registers (or returns the existing) family with the given shape.
// Re-registration with a different type or label set is a programming
// error and panics at init time rather than corrupting exposition.
func (r *Registry) family(name, help string, typ metricType, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// child returns (creating on first use) the series with the rendered label
// string key.
func (f *family) child(key string) *child {
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{labels: key}
	c.touched.Store(key == "") // unlabeled singletons always exposed
	if f.typ == typeHistogram {
		c.bounds = f.bounds
		c.counts = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = c
	return c
}

// renderLabels builds the canonical `k="v",…` string for a label set.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative deltas are ignored).
func (c Counter) Add(v float64) {
	if v < 0 || !enabled.Load() {
		return
	}
	c.c.touch()
	addFloat(&c.c.bits, v)
}

// Value returns the current count.
func (c Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.c.touch()
	g.c.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (use a negative v to decrease).
func (g Gauge) Add(v float64) {
	if !enabled.Load() {
		return
	}
	g.c.touch()
	addFloat(&g.c.bits, v)
}

// Value returns the current value.
func (g Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ c *child }

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	c := h.c
	c.touch()
	idx := len(c.bounds)
	for i, b := range c.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	c.counts[idx].Add(1)
	c.hcount.Add(1)
	addFloat(&c.sumBits, v)
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 { return h.c.hcount.Load() }

// Sum returns the sum of all observations.
func (h Histogram) Sum() float64 { return math.Float64frombits(h.c.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts by
// linear interpolation inside the owning bucket.  Observations beyond the
// last finite bound clamp to that bound, the usual Prometheus convention.
func (h Histogram) Quantile(q float64) float64 {
	return quantile(h.c, q)
}

func quantile(c *child, q float64) float64 {
	total := c.hcount.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range c.counts {
		n := float64(c.counts[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			if i >= len(c.bounds) {
				// Overflow bucket: clamp to the last finite bound.
				return c.bounds[len(c.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = c.bounds[i-1]
			}
			upper := c.bounds[i]
			return lower + (upper-lower)*((rank-cum)/n)
		}
		cum += n
	}
	return c.bounds[len(c.bounds)-1]
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in declaration
// order).  Children are cached; repeated calls with the same values cost a
// map lookup.
func (v CounterVec) With(values ...string) Counter {
	return Counter{c: v.f.child(renderLabels(v.f.labels, values))}
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{c: v.f.child(renderLabels(v.f.labels, values))}
}

// Registry constructors.  Each returns the existing metric when the name is
// already registered with the same shape, so multiple containers in one
// process share series instead of clashing.

// Counter registers (or fetches) a plain counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{c: r.family(name, help, typeCounter, nil, nil).child("")}
}

// Gauge registers (or fetches) a plain gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{c: r.family(name, help, typeGauge, nil, nil).child("")}
}

// Histogram registers (or fetches) a plain histogram with the given bucket
// upper bounds (must be sorted ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) Histogram {
	f := r.family(name, help, typeHistogram, nil, bounds)
	return Histogram{c: f.child("")}
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// HistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	return HistogramVec{f: r.family(name, help, typeHistogram, labels, bounds)}
}

// Package-level constructors registering into Default.

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name, help string, bounds []float64) Histogram {
	return Default.Histogram(name, help, bounds)
}

// NewCounterVec registers a labelled counter family in the default registry.
func NewCounterVec(name, help string, labels ...string) CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// NewHistogramVec registers a labelled histogram family in the default
// registry.
func NewHistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	return Default.HistogramVec(name, help, bounds, labels...)
}

// sortedFamilies snapshots the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's exposed children ordered by label
// string.  Labeled children that were never updated are omitted (see
// child.touch).
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	cs := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		if c.touched.Load() {
			cs = append(cs, c)
		}
	}
	f.mu.RUnlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].labels < cs[j].labels })
	return cs
}
