package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Self time is the span's duration minus what its children cover, with
// overlapping children counted once and a late child clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cycle", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},    // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},   // ends after its parent
		{ID: 4, Parent: 1, Name: "a1", Start: 12, End: 20},   // grandchild
		{ID: 5, Parent: 0, Name: "open", Start: 60, End: -1}, // never ended: covers nothing
	}
	want := []int64{50, 12, 30, 30, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerTable(t *testing.T) {
	var spans []span
	add := func(parent int, name string, start, end int64) int {
		spans = append(spans, span{ID: len(spans), Parent: parent, Name: name, Start: start, End: end})
		return len(spans) - 1
	}
	// Two cycles of 1000 ns with two 400 ns calls each; each call holds a
	// 100 ns handler.  One isolated 250 ns span.
	for c := int64(0); c < 2; c++ {
		base := c * 10000
		root := add(-1, "cycle", base, base+1000)
		for k := int64(0); k < 2; k++ {
			call := add(root, "client.call", base+100+k*450, base+500+k*450)
			add(call, "obs.instrument", base+200+k*450, base+300+k*450)
		}
	}
	add(-1, "core.validate", 50000, 50250)

	rows := map[string]layerRow{}
	for _, r := range layerTable(spans, traceRoots) {
		rows[r.Name] = r
	}
	if r := rows["cycle"]; r.Count != 2 || r.P50us != 1 || r.SelfP50us != 0.2 {
		t.Errorf("cycle row = %+v, want count 2, p50 1 us, self 0.2 us", r)
	}
	// 300 ns of self time, twice per cycle, over a 1000 ns cycle.
	if r := rows["client.call"]; r.Count != 4 || r.SelfP50us != 0.3 || !near(r.Share, 0.6) {
		t.Errorf("client.call row = %+v, want count 4, self 0.3 us, share 0.6", r)
	}
	if r := rows["obs.instrument"]; !near(r.Share, 0.2) {
		t.Errorf("obs.instrument share = %v, want 0.2", r.Share)
	}
	if r := rows["core.validate"]; r.P50us != 0.25 || !near(r.Share, 0.25) {
		t.Errorf("isolated row = %+v, want p50 0.25 us and share 0.25 of the cycle", r)
	}
}

// Handler spans find their parent through the trace header: the innermost
// open handler span of the same request, else the client span it names.
func TestMiddlewareParents(t *testing.T) {
	rec := newRecorder()
	rec.enable(true)
	inner := rec.middleware("container.handler", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	outer := rec.middleware("obs.instrument", inner)

	root := rec.begin("b7", "cycle", -1)
	call := rec.begin("b7", "client.call", root)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(traceHeader, headerValue("b7", call))
	outer.ServeHTTP(httptest.NewRecorder(), req)
	rec.end(call)
	rec.end(root)

	// A request of somebody else (a gateway health poll) leaves no span.
	outer.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))

	if len(rec.spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(rec.spans))
	}
	instrument, handler := rec.spans[2], rec.spans[3]
	if instrument.Name != "obs.instrument" || instrument.Parent != call || instrument.Req != "b7" {
		t.Errorf("outer handler span = %+v, want obs.instrument under span %d of b7", instrument, call)
	}
	if handler.Name != "container.handler" || handler.Parent != instrument.ID {
		t.Errorf("inner handler span = %+v, want container.handler under span %d", handler, instrument.ID)
	}
	if len(rec.open) != 0 {
		t.Errorf("open handler spans left behind: %v", rec.open)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %s never ended", s.Name)
		}
	}

	rec.enable(false)
	outer.ServeHTTP(httptest.NewRecorder(), req)
	if id := rec.begin("b8", "cycle", -1); id != -1 || len(rec.spans) != 4 {
		t.Errorf("a disabled recorder recorded: id %d, %d spans", id, len(rec.spans))
	}
}
