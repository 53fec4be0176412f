package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// traceHeader carries the span context of the traced run.  It is the
// servers' own X-Request-ID, which the gateway forwards to replicas, with
// the value "b<request>.<id of the client span that sent it>".
const traceHeader = "X-Request-ID"

// span is one timed interval of the traced run.  Spans of one cycle share
// Req; Parent is the ID of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the benchmark
// ends.  Handlers run on server goroutines, so it locks.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	// open holds, per header value, the server-side spans that have begun
	// and not ended, innermost last: a handler's parent is the innermost
	// open span of its request, or the client span named in the header.
	open map[string][]int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string][]int{}}
}

func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// begin opens a span with an explicit parent and returns its ID, or -1 when
// the recorder is off.
func (r *recorder) begin(req, name string, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.openSpan(req, name, parent, now)
}

// openSpan appends a span; the caller holds r.mu.
func (r *recorder) openSpan(req, name string, parent int, now int64) int {
	if !r.on {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// headerValue renders the trace header a client span sends.
func headerValue(req string, clientSpan int) string {
	return req + "." + strconv.Itoa(clientSpan)
}

// parseHeader splits a trace header into the request and the client span;
// ok is false for requests the traced run did not send (the gateway's own
// health and load polls).
func parseHeader(v string) (req string, clientSpan int, ok bool) {
	dot := strings.LastIndexByte(v, '.')
	if dot < 0 || !strings.HasPrefix(v, "b") {
		return "", 0, false
	}
	id, err := strconv.Atoi(v[dot+1:])
	if err != nil {
		return "", 0, false
	}
	return v[:dot], id, true
}

// beginServer opens a handler span for a request carrying the trace header
// hv; it returns -1 for requests the traced run did not send.
func (r *recorder) beginServer(hv, name string) int {
	req, parent, ok := parseHeader(hv)
	if !ok {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if stack := r.open[hv]; len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	id := r.openSpan(req, name, parent, now)
	if id >= 0 {
		r.open[hv] = append(r.open[hv], id)
	}
	return id
}

// endServer closes a handler span.  Handlers of one request usually end
// innermost first, but a replica's handler can return after the gateway has
// already relayed its answer, so the span is removed wherever it sits.
func (r *recorder) endServer(hv string, id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	stack := r.open[hv]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == id {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(r.open, hv)
	} else {
		r.open[hv] = stack
	}
}

// middleware records a span named name around next.
func (r *recorder) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		hv := q.Header.Get(traceHeader)
		id := r.beginServer(hv, name)
		next.ServeHTTP(w, q)
		r.endServer(hv, id)
	})
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover.  A span's ID is its index in spans.  A child may end after its parent (a handler
// returns after the client has read the answer), so children are clipped to
// the parent; overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < covered {
				from = covered
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// layerRow is one line of the layer table.
type layerRow struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	SelfP50us float64 `json:"self_p50_us"`
	MeanSelf  float64 `json:"mean_self_us"`
	// Share is the span's self time per cycle over the cycle's p50: for a
	// span nested in a cycle, self p50 times its count per cycle; for an
	// isolated span, its p50 over the direct cycle's p50.
	Share float64 `json:"share"`
}

// layerTable aggregates finished spans by name.  roots maps a span name to
// the name of the cycle it is nested in ("" for isolated spans, which are
// compared with the direct cycle).
func layerTable(spans []span, roots map[string]string) []layerRow {
	self := selfTimes(spans)
	type acc struct{ dur, self []float64 }
	byName := map[string]*acc{}
	var order []string
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e3)
		a.self = append(a.self, float64(self[i])/1e3)
	}
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		a := byName[name]
		row := layerRow{Name: name, Count: len(a.dur),
			P50us: median(a.dur), SelfP50us: median(a.self), MeanSelf: mean(a.self)}
		rows = append(rows, row)
	}
	find := func(name string) *layerRow {
		for i := range rows {
			if rows[i].Name == name {
				return &rows[i]
			}
		}
		return nil
	}
	for i := range rows {
		row := &rows[i]
		rootName, nested := roots[row.Name]
		if !nested {
			rootName = "cycle"
		}
		root := find(rootName)
		if root == nil || root.P50us == 0 {
			continue
		}
		perCycle := 1.0
		if nested {
			perCycle = float64(row.Count) / float64(root.Count)
		}
		row.Share = row.SelfP50us * perCycle / root.P50us
	}
	return rows
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// printLayerTable writes the layer table for people.
func printLayerTable(rows []layerRow) {
	fmt.Printf("# %-28s %7s %10s %12s %7s\n", "span", "count", "p50_us", "self_p50_us", "share")
	for _, r := range rows {
		fmt.Printf("# %-28s %7d %10.1f %12.1f %7.3f\n", r.Name, r.Count, r.P50us, r.SelfP50us, r.Share)
	}
}
