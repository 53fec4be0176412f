package catalogue

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/rest"
)

// fakeDescriber serves canned descriptions and can simulate outages.
type fakeDescriber struct {
	mu    sync.Mutex
	descs map[string]core.ServiceDescription
	down  map[string]bool
}

func newFakeDescriber() *fakeDescriber {
	return &fakeDescriber{
		descs: map[string]core.ServiceDescription{},
		down:  map[string]bool{},
	}
}

func (f *fakeDescriber) add(uri string, d core.ServiceDescription) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.descs[uri] = d
}

func (f *fakeDescriber) setDown(uri string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[uri] = down
}

func (f *fakeDescriber) Describe(_ context.Context, uri string) (core.ServiceDescription, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[uri] {
		return core.ServiceDescription{}, fmt.Errorf("connection refused")
	}
	d, ok := f.descs[uri]
	if !ok {
		return d, fmt.Errorf("no such service")
	}
	return d, nil
}

func seeded(t *testing.T) (*Catalogue, *fakeDescriber) {
	t.Helper()
	f := newFakeDescriber()
	f.add("http://a/services/invert", core.ServiceDescription{
		Name:        "invert",
		Title:       "Matrix inversion",
		Description: "Error-free inversion of ill-conditioned Hilbert matrices using exact arithmetic.",
	})
	f.add("http://a/services/solver", core.ServiceDescription{
		Name:        "solver",
		Title:       "LP solver",
		Description: "Solves linear programs with the simplex method.",
	})
	f.add("http://b/services/xray", core.ServiceDescription{
		Name:        "xray",
		Title:       "Scattering curves",
		Description: "Computes X-ray scattering curves for carbon nanostructures.",
	})
	c := New(f)
	ctx := context.Background()
	for uri, tags := range map[string][]string{
		"http://a/services/invert": {"matrix", "cas"},
		"http://a/services/solver": {"optimization"},
		"http://b/services/xray":   {"physics"},
	} {
		if _, err := c.Register(ctx, uri, tags); err != nil {
			t.Fatal(err)
		}
	}
	return c, f
}

func TestRegisterRetrievesDescription(t *testing.T) {
	c, _ := seeded(t)
	e, err := c.Get("http://a/services/invert")
	if err != nil {
		t.Fatal(err)
	}
	if e.Description.Title != "Matrix inversion" {
		t.Errorf("title = %q", e.Description.Title)
	}
	if !e.Available {
		t.Error("fresh registration not marked available")
	}
	if !reflect.DeepEqual(e.Tags, []string{"cas", "matrix"}) {
		t.Errorf("tags = %v", e.Tags)
	}
}

func TestRegisterUnreachableServiceFails(t *testing.T) {
	c := New(newFakeDescriber())
	if _, err := c.Register(context.Background(), "http://nowhere/svc", nil); err == nil {
		t.Error("unreachable service registered")
	}
	if _, err := c.Register(context.Background(), "", nil); err == nil {
		t.Error("empty URI registered")
	}
}

func TestSearchRanksAndSnippets(t *testing.T) {
	c, _ := seeded(t)
	results := c.Search("matrix inversion", SearchOptions{})
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].Name != "invert" {
		t.Errorf("top result = %s, want invert", results[0].Name)
	}
	if !strings.Contains(results[0].Snippet, "<b>inversion</b>") {
		t.Errorf("snippet %q lacks highlighted term", results[0].Snippet)
	}
}

func TestSearchByTag(t *testing.T) {
	c, _ := seeded(t)
	results := c.Search("optimization", SearchOptions{})
	if len(results) == 0 || results[0].Name != "solver" {
		t.Errorf("results = %+v", results)
	}
	// Tag filter keeps only matching entries.
	filtered := c.Search("curves solver matrix", SearchOptions{Tag: "physics"})
	for _, r := range filtered {
		if r.Name != "xray" {
			t.Errorf("tag filter leaked %s", r.Name)
		}
	}
}

func TestSearchNoQueryTermsGivesNothing(t *testing.T) {
	c, _ := seeded(t)
	if res := c.Search("", SearchOptions{}); len(res) != 0 {
		t.Errorf("empty query returned %d results", len(res))
	}
	if res := c.Search("zzzunknownterm", SearchOptions{}); len(res) != 0 {
		t.Errorf("unknown term returned %d results", len(res))
	}
}

func TestPingMarksUnavailable(t *testing.T) {
	c, f := seeded(t)
	f.setDown("http://b/services/xray", true)
	available := c.Ping(context.Background())
	if available != 2 {
		t.Errorf("available = %d, want 2", available)
	}
	e, _ := c.Get("http://b/services/xray")
	if e.Available {
		t.Error("down service still marked available")
	}
	// Search shows it but marks it; the available filter drops it.
	res := c.Search("scattering", SearchOptions{})
	if len(res) != 1 || res[0].Available {
		t.Errorf("res = %+v", res)
	}
	res = c.Search("scattering", SearchOptions{OnlyAvailable: true})
	if len(res) != 0 {
		t.Errorf("available filter kept %d results", len(res))
	}
	// Recovery.
	f.setDown("http://b/services/xray", false)
	c.Ping(context.Background())
	e, _ = c.Get("http://b/services/xray")
	if !e.Available {
		t.Error("recovered service still marked unavailable")
	}
}

func TestUserTagging(t *testing.T) {
	c, _ := seeded(t)
	if _, err := c.AddTags("http://a/services/solver", []string{"LP", "Simplex "}); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Get("http://a/services/solver")
	if !reflect.DeepEqual(e.Tags, []string{"lp", "optimization", "simplex"}) {
		t.Errorf("tags = %v", e.Tags)
	}
	// The new tags are searchable.
	res := c.Search("simplex", SearchOptions{})
	found := false
	for _, r := range res {
		if r.Name == "solver" {
			found = true
		}
	}
	if !found {
		t.Error("user tag not indexed")
	}
	if _, err := c.AddTags("http://missing", []string{"x"}); err == nil {
		t.Error("tagging unknown service succeeded")
	}
}

func TestUnregister(t *testing.T) {
	c, _ := seeded(t)
	if err := c.Unregister("http://a/services/invert"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("http://a/services/invert"); !core.IsNotFound(err) {
		t.Errorf("err = %v", err)
	}
	if res := c.Search("inversion", SearchOptions{}); len(res) != 0 {
		t.Error("unregistered service still searchable")
	}
	if err := c.Unregister("http://a/services/invert"); err == nil {
		t.Error("double unregister succeeded")
	}
}

func TestReregisterRefreshes(t *testing.T) {
	c, f := seeded(t)
	f.add("http://a/services/invert", core.ServiceDescription{
		Name:        "invert",
		Description: "Now with block decomposition support.",
	})
	if _, err := c.Register(context.Background(), "http://a/services/invert", []string{"v2"}); err != nil {
		t.Fatal(err)
	}
	res := c.Search("decomposition", SearchOptions{})
	if len(res) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if c.Size() != 3 {
		t.Errorf("size = %d, want 3 (re-register must not duplicate)", c.Size())
	}
}

func TestTokenizer(t *testing.T) {
	got := Tokenize("Hilbert-matrix inversion (N×N), v2.0!")
	want := []string{"hilbert", "matrix", "inversion", "n", "n", "v2", "0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("Tokenize(\"\") = %v", toks)
	}
}

func TestSnippetWindowAndHighlight(t *testing.T) {
	text := strings.Repeat("padding words here ", 20) +
		"the quick brown fox jumps over the lazy dog" +
		strings.Repeat(" trailing content", 20)
	s := Snippet(text, "fox dog", 80)
	if !strings.Contains(s, "<b>fox</b>") {
		t.Errorf("snippet %q lacks fox highlight", s)
	}
	if !strings.HasPrefix(s, "...") || !strings.HasSuffix(s, "...") {
		t.Errorf("snippet %q not elided on both sides", s)
	}
	// Whole-token matching: "fo" must not highlight inside "fox".
	if s2 := Snippet("the fox", "fo", 50); strings.Contains(s2, "<b>") {
		t.Errorf("partial token highlighted: %q", s2)
	}
}

// Property: index Search never returns more hits than documents, scores
// are positive and sorted descending, and adding then removing a document
// restores the previous result set.
func TestPropertyIndexConsistency(t *testing.T) {
	words := []string{"matrix", "solver", "xray", "grid", "exact", "service", "hilbert"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := newIndex()
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			var doc []string
			for w := 0; w < 1+rng.Intn(10); w++ {
				doc = append(doc, words[rng.Intn(len(words))])
			}
			ix.Add(fmt.Sprintf("doc%d", i), strings.Join(doc, " "))
		}
		query := words[rng.Intn(len(words))]
		before := ix.SearchTop(query, 0)
		if len(before) > len(ix.docTerms) {
			return false
		}
		for i := 1; i < len(before); i++ {
			if before[i-1].Score < before[i].Score {
				return false
			}
		}
		ix.Add("extra", query+" "+query)
		ix.Remove("extra")
		after := ix.SearchTop(query, 0)
		if len(after) != len(before) {
			return false
		}
		for i := range after {
			if after[i].DocID != before[i].DocID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHTTPInterface(t *testing.T) {
	c, _ := seeded(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Search endpoint.
	resp, err := http.Get(srv.URL + "/search?q=matrix+inversion")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []Result `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) == 0 || out.Results[0].Name != "invert" {
		t.Errorf("results = %+v", out.Results)
	}

	// List endpoint.
	resp, err = http.Get(srv.URL + "/services")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Services []Entry `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Services) != 3 {
		t.Errorf("services = %d", len(list.Services))
	}

	// Ping endpoint.
	resp, err = http.Post(srv.URL+"/ping", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ping status = %d", resp.StatusCode)
	}

	// HTML home page.
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("home content type = %q", ct)
	}
}

// TestSearchQueryParams pins the one /search parser the catalogue and the
// gateway share: a malformed limit is a 400, available=1 filters like
// available=true, and the answer carries its result count.
func TestSearchQueryParams(t *testing.T) {
	c, _ := seeded(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for _, limit := range []string{"-1", "abc"} {
		resp, err := http.Get(srv.URL + "/search?q=matrix&limit=" + limit)
		if err != nil {
			t.Fatal(err)
		}
		var body rest.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body.Status != http.StatusBadRequest {
			t.Errorf("limit=%s: status %d, body %+v (%v), want a JSON 400", limit, resp.StatusCode, body, err)
		}
	}

	resp, err := http.Get(srv.URL + "/search?q=matrix+inversion&available=1&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []Result `json:"results"`
		Total   int      `json:"total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode %v", resp.StatusCode, err)
	}
	if len(out.Results) != 1 || out.Total != 1 || !out.Results[0].Available {
		t.Errorf("available=1&limit=1: %d results, total %d: %+v", len(out.Results), out.Total, out.Results)
	}
}

func TestStartPingerRuns(t *testing.T) {
	c, f := seeded(t)
	f.setDown("http://a/services/solver", true)
	c.StartPinger(10 * time.Millisecond)
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e, _ := c.Get("http://a/services/solver")
		if !e.Available {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pinger never marked the service unavailable")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalRoundTrip: registrations, a tag update and an unregistration,
// on both sides of a checkpoint, come back from the journal into a fresh
// catalogue with its index rebuilt.
func TestJournalRoundTrip(t *testing.T) {
	const (
		invert = "http://a/services/invert"
		solver = "http://a/services/solver"
		xray   = "http://b/services/xray"
		fit    = "http://b/services/fit"
	)
	_, f := seeded(t) // for its describer; the entries go to a journaled catalogue
	f.add(fit, core.ServiceDescription{Name: "fit", Title: "Curve fitting",
		Description: "Fits scattering curves to measured data."})
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(f)
	if err := c.AttachJournal(jl); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, uri := range []string{invert, solver, xray} {
		if _, err := c.Register(ctx, uri, []string{"demo"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddTags(solver, []string{"persisted"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(xray); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, fit, []string{"physics"}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	restored := New(newFakeDescriber()) // the describer is not consulted on replay
	if err := restored.AttachJournal(jl2); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		invert: {"demo"},
		solver: {"demo", "persisted"},
		fit:    {"physics"},
	}
	got := restored.List()
	if len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d: %+v", len(got), len(want), got)
	}
	for _, e := range got {
		if !reflect.DeepEqual(e.Tags, want[e.URI]) {
			t.Errorf("%s tags = %v, want %v", e.URI, e.Tags, want[e.URI])
		}
	}
	for q, name := range map[string]string{"matrix inversion": "invert", "persisted": "solver", "fitting": "fit"} {
		if res := restored.Search(q, SearchOptions{}); len(res) == 0 || res[0].Name != name {
			t.Errorf("restored search %q = %+v, want %s first", q, res, name)
		}
	}
	if res := restored.Search("nanostructures", SearchOptions{}); len(res) != 0 {
		t.Errorf("unregistered service still found: %+v", res)
	}
}
