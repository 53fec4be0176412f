package workflow

import (
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"sort"
	"sync"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
)

// WMS is the workflow management service: it performs storage, deployment
// and execution of workflows created with the editor.  Each saved workflow
// is deployed as a new composite service in the WMS's container, and
// subsequent execution happens by sending requests to that service through
// the unified REST API — the WMS itself is a RESTful web service.
type WMS struct {
	container *container.Container

	mu        sync.RWMutex
	workflows map[string]*Workflow
}

// NewWMS creates a workflow management service on top of the given
// container, registering the "workflow" adapter kind bound to the given
// invoker/describer pair in the container's adapter registry.
func NewWMS(c *container.Container, registry *adapter.Registry, inv Invoker, desc Describer) *WMS {
	registry.Register("workflow", NewAdapterFactory(inv, desc))
	return &WMS{container: c, workflows: make(map[string]*Workflow)}
}

// Save validates and stores a workflow and (re)deploys it as a composite
// service.  The composite service name is the workflow name.
func (w *WMS) Save(wf *Workflow) error {
	cfg, err := compositeConfig(wf)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, exists := w.workflows[wf.Name]; exists {
		if err := w.container.Undeploy(wf.Name); err != nil {
			return err
		}
	}
	if err := w.container.Deploy(cfg); err != nil {
		return err
	}
	w.workflows[wf.Name] = wf
	return nil
}

func compositeConfig(wf *Workflow) (container.ServiceConfig, error) {
	raw, err := wf.Encode()
	if err != nil {
		return container.ServiceConfig{}, err
	}
	return container.ServiceConfig{
		Description: wf.CompositeDescription(),
		Adapter: container.AdapterSpec{
			Kind:   "workflow",
			Config: []byte(fmt.Sprintf(`{"workflow": %s}`, raw)),
		},
	}, nil
}

// Get returns a stored workflow document.
func (w *WMS) Get(name string) (*Workflow, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	wf, ok := w.workflows[name]
	if !ok {
		return nil, core.ErrNotFound("workflow", name)
	}
	return wf, nil
}

// List returns the stored workflow names, sorted.
func (w *WMS) List() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	names := make([]string, 0, len(w.workflows))
	for n := range w.workflows {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delete removes a workflow and undeploys its composite service.
func (w *WMS) Delete(name string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.workflows[name]; !ok {
		return core.ErrNotFound("workflow", name)
	}
	delete(w.workflows, name)
	return w.container.Undeploy(name)
}

// ServiceURI returns the URI of the composite service publishing the
// workflow.
func (w *WMS) ServiceURI(name string) string {
	return w.container.ServiceURI(name)
}

// Handler exposes the WMS routes of core.Routes beside the container's
// unified API, behind one ingress instrumentation: the workflow collection
// (GET lists, POST saves, creating or updating) and one workflow (GET
// downloads its JSON document, DELETE removes it), plus the editor page.
func (w *WMS) Handler() http.Handler {
	return obs.Instrument(w.container.Mux(core.TierWMS, map[string]http.HandlerFunc{
		"workflows": w.handleWorkflows,
		"editor":    w.renderEditor,
	}))
}

func (w *WMS) handleWorkflows(rw http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch {
	case name == "" && r.Method == http.MethodGet:
		names := w.List()
		type entry struct {
			Name    string `json:"name"`
			Service string `json:"service"`
		}
		out := make([]entry, 0, len(names))
		for _, n := range names {
			out = append(out, entry{Name: n, Service: w.ServiceURI(n)})
		}
		rest.WriteJSON(rw, http.StatusOK, map[string]any{"workflows": out})
	case name == "" && r.Method == http.MethodPost:
		var wf Workflow
		if err := rest.ReadJSON(r, &wf); err != nil {
			rest.WriteError(rw, err)
			return
		}
		if err := w.Save(&wf); err != nil {
			var ve *ValidationError
			if errors.As(err, &ve) {
				rest.WriteError(rw, core.ErrBadRequest("%v", err))
				return
			}
			rest.WriteError(rw, err)
			return
		}
		rw.Header().Set("Location", w.ServiceURI(wf.Name))
		rest.WriteJSON(rw, http.StatusCreated, map[string]string{
			"name":    wf.Name,
			"service": w.ServiceURI(wf.Name),
		})
	case name == "":
		rest.MethodNotAllowed(rw, http.MethodGet, http.MethodPost)
	case r.Method == http.MethodGet:
		wf, err := w.Get(name)
		if err != nil {
			rest.WriteError(rw, err)
			return
		}
		rest.WriteJSON(rw, http.StatusOK, wf)
	case r.Method == http.MethodDelete:
		if err := w.Delete(name); err != nil {
			rest.WriteError(rw, err)
			return
		}
		rw.WriteHeader(http.StatusNoContent)
	default:
		rest.MethodNotAllowed(rw, http.MethodGet, http.MethodDelete)
	}
}

// The editor page.  The paper's graphical editor is a JavaScript Web
// application inspired by Yahoo! Pipes; here the JSON workflow format —
// which the paper also exposes for manual editing and re-upload — is the
// primary editing surface, served with a minimal form.
var editorTemplate = template.Must(template.New("editor").Parse(`<!DOCTYPE html>
<html><head><title>MathCloud workflow editor</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
textarea{width:100%;height:24em;font-family:monospace}
pre{background:#f4f4f4;padding:1em;overflow:auto}
</style></head><body>
<h1>Workflow editor</h1>
<p>Stored workflows: {{range .}}<a href="/workflows/{{.}}">{{.}}</a> {{end}}</p>
<p>Edit the workflow document (JSON) and save; the workflow is validated,
published as a composite service and becomes callable like any other
service.</p>
<textarea id="doc">{
  "name": "example",
  "blocks": [],
  "edges": []
}</textarea><br>
<button onclick="save()">Save &amp; publish</button>
<pre id="result"></pre>
<script>
async function save() {
  const out = document.getElementById('result');
  try {
    const resp = await fetch('/workflows', {
      method: 'POST',
      headers: {'Content-Type': 'application/json'},
      body: document.getElementById('doc').value
    });
    out.textContent = JSON.stringify(await resp.json(), null, 2);
  } catch (e) { out.textContent = 'error: ' + e; }
}
</script>
</body></html>
`))

func (w *WMS) renderEditor(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(rw, http.MethodGet)
		return
	}
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := editorTemplate.Execute(rw, w.List()); err != nil {
		log.Printf("workflow: render editor: %v", err)
	}
}
