package container

import (
	"encoding/json"
	"html/template"
	"log"
	"net/http"
	"time"

	"mathcloud/internal/core"
)

// The container automatically generates a complementary web interface for
// each deployed service, so users can inspect and invoke services from a
// browser — one of the paper's arguments for REST+JSON over big Web
// services.  The interface is intentionally framework-free: a description
// page per service with a JSON submission form driven by a few lines of
// inline JavaScript issuing the same POST a programmatic client would.

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>MathCloud Everest</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:.3em .6em;text-align:left}
code{background:#eee;padding:0 .2em}
</style></head><body>
<h1>Everest service container</h1>
<p>{{len .}} deployed computational web service(s).</p>
<table><tr><th>Service</th><th>Title</th><th>Description</th><th>Tags</th></tr>
{{range .}}<tr>
<td><a href="/services/{{.Name}}">{{.Name}}</a></td>
<td>{{.Title}}</td><td>{{.Description}}</td>
<td>{{range .Tags}}<code>{{.}}</code> {{end}}</td>
</tr>{{end}}
</table></body></html>
`))

var serviceTemplate = template.Must(template.New("service").Parse(`<!DOCTYPE html>
<html><head><title>{{.Name}} — MathCloud</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:.3em .6em;text-align:left}
textarea{width:100%;height:10em;font-family:monospace}
pre{background:#f4f4f4;padding:1em;overflow:auto}
</style></head><body>
<h1>{{.Title}}{{if not .Title}}{{.Name}}{{end}}</h1>
<p>{{.Description}}</p>
<p>Version: {{.Version}} &middot; URI: <code>{{.URI}}</code></p>
<h2>Inputs</h2>
<table><tr><th>Name</th><th>Title</th><th>Type</th><th>Optional</th></tr>
{{range .Inputs}}<tr><td><code>{{.Name}}</code></td><td>{{.Title}}</td>
<td>{{if .Schema}}{{.Schema.Describe}}{{else}}any{{end}}</td>
<td>{{if .Optional}}yes{{end}}</td></tr>{{end}}
</table>
<h2>Outputs</h2>
<table><tr><th>Name</th><th>Title</th><th>Type</th></tr>
{{range .Outputs}}<tr><td><code>{{.Name}}</code></td><td>{{.Title}}</td>
<td>{{if .Schema}}{{.Schema.Describe}}{{else}}any{{end}}</td></tr>{{end}}
</table>
<h2>Submit a request</h2>
<p>Input parameters as a JSON object:</p>
<textarea id="inputs">{}</textarea><br>
<button onclick="submitJob()">Run</button>
<pre id="result"></pre>
<script>
// Submit without ?wait= and go straight to the job page, which follows
// the job's SSE event stream to completion — the page never shows a
// stale snapshot of a slow job.
async function submitJob() {
  const out = document.getElementById('result');
  out.textContent = 'submitting...';
  try {
    const resp = await fetch('/services/{{.Name}}', {
      method: 'POST',
      headers: {'Content-Type': 'application/json'},
      body: document.getElementById('inputs').value
    });
    const job = await resp.json();
    if (!resp.ok || !job.id) {
      out.textContent = JSON.stringify(job, null, 2);
      return;
    }
    window.location = '/services/{{.Name}}/jobs/' + job.id;
  } catch (e) { out.textContent = 'error: ' + e; }
}
</script>
</body></html>
`))

var jobTemplate = template.Must(template.New("job").Funcs(template.FuncMap{
	"stamp": func(t time.Time) string {
		if t.IsZero() {
			return "—"
		}
		return t.Format("2006-01-02 15:04:05.000 MST")
	},
	"json": func(v any) string {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err.Error()
		}
		return string(b)
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>Job {{.ID}} — MathCloud</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:.3em .6em;text-align:left}
code{background:#eee;padding:0 .2em}
pre{background:#f4f4f4;padding:1em;overflow:auto}
.state-DONE{color:#060}.state-ERROR{color:#a00}.state-RUNNING{color:#06c}
</style></head><body>
<h1>Job <code>{{.ID}}</code></h1>
<p>Service <a href="/services/{{.Service}}"><code>{{.Service}}</code></a>
&middot; state <strong id="state" class="state-{{.State}}">{{.State}}</strong>
{{if .TraceID}}&middot; trace <code>{{.TraceID}}</code>{{end}}
{{if .Owner}}&middot; owner <code>{{.Owner}}</code>{{end}}</p>
<h2>Timeline</h2>
<table>
<tr><th>Submitted</th><td>{{stamp .Created}}</td><td></td></tr>
<tr><th>Started</th><td>{{stamp .Started}}</td>
<td>{{if .QueueWait}}queued {{.QueueWait}}{{end}}</td></tr>
<tr><th>Finished</th><td>{{stamp .Finished}}</td>
<td>{{if .RunTime}}ran {{.RunTime}}{{end}}</td></tr>
</table>
{{if .Error}}<h2>Error</h2><pre>{{.Error}}</pre>{{end}}
{{if .Inputs}}<h2>Inputs</h2><pre>{{json .Inputs}}</pre>{{end}}
{{if .Outputs}}<h2>Outputs</h2><pre>{{json .Outputs}}</pre>{{end}}
{{if .Log}}<h2>Log</h2><pre>{{range .Log}}{{.}}
{{end}}</pre>{{end}}
{{if not .State.Terminal}}<script>
// Live page: follow the job's SSE stream; reload once it goes terminal
// so the server renders the final outputs/error sections.
(function () {
  const stateEl = document.getElementById('state');
  const es = new EventSource('/services/{{.Service}}/jobs/{{.ID}}/events');
  es.addEventListener('job', function (e) {
    const job = JSON.parse(e.data);
    stateEl.textContent = job.state;
    stateEl.className = 'state-' + job.state;
    if (job.state === 'DONE' || job.state === 'ERROR' || job.state === 'CANCELLED') {
      es.close();
      location.reload();
    }
  });
  es.addEventListener('sync', function () { es.close(); location.reload(); });
})();
</script>{{end}}
</body></html>
`))

var sweepTemplate = template.Must(template.New("sweep").Funcs(template.FuncMap{
	"stamp": func(t time.Time) string {
		if t.IsZero() {
			return "—"
		}
		return t.Format("2006-01-02 15:04:05.000 MST")
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>Sweep {{.ID}} — MathCloud</title><style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:.3em .6em;text-align:left}
code{background:#eee;padding:0 .2em}
pre{background:#f4f4f4;padding:1em;overflow:auto}
.state-DONE{color:#060}.state-ERROR{color:#a00}.state-RUNNING{color:#06c}
</style></head><body>
<h1>Sweep <code>{{.ID}}</code></h1>
<p>Service <a href="/services/{{.Service}}"><code>{{.Service}}</code></a>
&middot; state <strong id="state" class="state-{{.State}}">{{.State}}</strong>
&middot; width {{.Width}}
{{if .TraceID}}&middot; trace <code>{{.TraceID}}</code>{{end}}
{{if .Owner}}&middot; owner <code>{{.Owner}}</code>{{end}}</p>
<h2>Children</h2>
<table>
<tr><th>Waiting</th><td id="count-waiting">{{.Counts.Waiting}}</td></tr>
<tr><th>Running</th><td id="count-running">{{.Counts.Running}}</td></tr>
<tr><th>Done</th><td id="count-done">{{.Counts.Done}}</td></tr>
<tr><th>Error</th><td id="count-error">{{.Counts.Error}}</td></tr>
<tr><th>Cancelled</th><td id="count-cancelled">{{.Counts.Cancelled}}</td></tr>
</table>
<p>Submitted {{stamp .Created}}{{if not .Finished.IsZero}} &middot; finished {{stamp .Finished}}{{end}}</p>
{{if .FirstError}}<h2>First error</h2><pre>{{.FirstError}}</pre>{{end}}
<p><a href="{{.JobsURI}}">Child jobs</a></p>
{{if not .State.Terminal}}<script>
// Live campaign progress from the sweep's SSE stream; reload on the
// terminal event for the server-rendered final page.
(function () {
  const stateEl = document.getElementById('state');
  const es = new EventSource('/services/{{.Service}}/sweeps/{{.ID}}/events');
  es.addEventListener('sweep', function (e) {
    const s = JSON.parse(e.data);
    for (const k of ['waiting', 'running', 'done', 'error', 'cancelled']) {
      document.getElementById('count-' + k).textContent = s.counts[k];
    }
    stateEl.textContent = s.state;
    stateEl.className = 'state-' + s.state;
    if (s.state === 'DONE' || s.state === 'ERROR' || s.state === 'CANCELLED') {
      es.close();
      location.reload();
    }
  });
  es.addEventListener('sync', function () { es.close(); location.reload(); });
})();
</script>{{end}}
</body></html>
`))

func (c *Container) renderIndex(w http.ResponseWriter, services []core.ServiceDescription) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, services); err != nil {
		log.Printf("container: render index: %v", err)
	}
}

func (c *Container) renderService(w http.ResponseWriter, desc core.ServiceDescription) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := serviceTemplate.Execute(w, desc); err != nil {
		log.Printf("container: render service: %v", err)
	}
}

// renderJob paints the job lifecycle timeline page: submitted/started/
// finished stamps with the derived queue-wait and run durations, plus the
// trace ID so a browser user can correlate the job with server logs.
func (c *Container) renderJob(w http.ResponseWriter, page core.Job) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	page.URI = c.JobURI(page.Service, page.ID)
	if err := jobTemplate.Execute(w, &page); err != nil {
		log.Printf("container: render job: %v", err)
	}
}

// renderSweep paints the campaign status page: per-state child counts and
// the first error, cheap to serve at any width.
func (c *Container) renderSweep(w http.ResponseWriter, sweep *core.Sweep) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := sweepTemplate.Execute(w, sweep); err != nil {
		log.Printf("container: render sweep: %v", err)
	}
}
