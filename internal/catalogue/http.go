package catalogue

import (
	"html/template"
	"log"
	"net/http"
	"strconv"

	"mathcloud/internal/core"
	"mathcloud/internal/rest"
)

// Handler exposes the catalogue as a web application (the routes
// core.Routes gives TierCatalogue):
//
//	GET    /                         HTML search interface
//	GET    /search?q=...&tag=...     JSON search results (ServeSearch)
//	GET    /services                 list all entries
//	POST   /services                 register {uri, tags}
//	DELETE /services?uri=...         unregister
//	POST   /tags?uri=...             add user tags {tags}
//	POST   /ping                     probe availability now
//	GET    /metrics, /status         the process's metrics
func (c *Catalogue) Handler() http.Handler {
	return rest.NewMux(core.TierCatalogue, map[string]http.HandlerFunc{
		"index":   c.handleHome,
		"search":  c.ServeSearch,
		"service": c.handleServices,
		"tags":    c.handleTags,
		"ping":    c.handlePing,
	}, nil)
}

// ServeSearch answers GET /search: ?q= is the full-text query, ?tag= keeps
// entries with that tag, ?available=true (or 1) keeps reachable ones, and
// ?limit= bounds the result count.  A malformed limit is a 400.  The
// gateway serves its federated catalogue through it too.
func (c *Catalogue) ServeSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	q := r.URL.Query()
	opts := SearchOptions{
		Tag:           q.Get("tag"),
		OnlyAvailable: q.Get("available") == "true" || q.Get("available") == "1",
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			rest.WriteError(w, core.ErrBadRequest("invalid limit %q", s))
			return
		}
		opts.Limit = n
	}
	results := c.Search(q.Get("q"), opts)
	if results == nil {
		results = []Result{}
	}
	rest.WriteJSON(w, http.StatusOK, map[string]any{
		"query":   q.Get("q"),
		"results": results,
		"total":   len(results),
	})
}

func (c *Catalogue) handleServices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rest.WriteJSON(w, http.StatusOK, map[string]any{"services": c.List()})
	case http.MethodPost:
		var req struct {
			URI  string   `json:"uri"`
			Tags []string `json:"tags"`
		}
		if err := rest.ReadJSON(r, &req); err != nil {
			rest.WriteError(w, err)
			return
		}
		entry, err := c.Register(r.Context(), req.URI, req.Tags)
		if err != nil {
			rest.WriteError(w, err)
			return
		}
		rest.WriteJSON(w, http.StatusCreated, entry)
	case http.MethodDelete:
		uri := r.URL.Query().Get("uri")
		if err := c.Unregister(uri); err != nil {
			rest.WriteError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		rest.MethodNotAllowed(w, http.MethodGet, http.MethodPost, http.MethodDelete)
	}
}

func (c *Catalogue) handleTags(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rest.MethodNotAllowed(w, http.MethodPost)
		return
	}
	var req struct {
		Tags []string `json:"tags"`
	}
	if err := rest.ReadJSON(r, &req); err != nil {
		rest.WriteError(w, err)
		return
	}
	entry, err := c.AddTags(r.URL.Query().Get("uri"), req.Tags)
	if err != nil {
		rest.WriteError(w, err)
		return
	}
	rest.WriteJSON(w, http.StatusOK, entry)
}

func (c *Catalogue) handlePing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rest.MethodNotAllowed(w, http.MethodPost)
		return
	}
	available := c.Ping(r.Context())
	rest.WriteJSON(w, http.StatusOK, map[string]int{
		"services":  c.Size(),
		"available": available,
	})
}

var homeTemplate = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>MathCloud service catalogue</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
input[type=text]{width:30em;padding:.4em}
.result{margin:1em 0;padding:.5em;border-left:3px solid #36c}
.result.unavailable{border-color:#c33;opacity:.6}
.uri{color:#060;font-size:.9em}
code{background:#eee;padding:0 .2em}
</style></head><body>
<h1>Service catalogue</h1>
<p>{{.}} published service(s).</p>
<form onsubmit="search(); return false">
  <input type="text" id="q" placeholder="full-text query, e.g. matrix inversion">
  <button>Search</button>
</form>
<div id="results"></div>
<script>
async function search() {
  const q = document.getElementById('q').value;
  const resp = await fetch('/search?q=' + encodeURIComponent(q));
  const data = await resp.json();
  const div = document.getElementById('results');
  div.innerHTML = '';
  for (const r of data.results) {
    const el = document.createElement('div');
    el.className = 'result' + (r.available ? '' : ' unavailable');
    el.innerHTML = '<a href="' + r.uri + '">' + (r.title || r.name) + '</a>' +
      (r.available ? '' : ' [unavailable]') +
      '<div>' + r.snippet + '</div>' +
      '<div class="uri">' + r.uri + '</div>';
    div.appendChild(el);
  }
  if (!data.results.length) div.textContent = 'no services found';
}
</script>
</body></html>
`))

func (c *Catalogue) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTemplate.Execute(w, c.Size()); err != nil {
		log.Printf("catalogue: render home: %v", err)
	}
}
