// Package rest provides the HTTP plumbing shared by all MathCloud server
// components: JSON request/response encoding, mapping of platform errors to
// HTTP status codes, and small routing helpers.  It exists so that the
// container, the catalogue and the workflow management service expose a
// uniform RESTful surface, which is the central argument of the paper.
package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// MaxBodyBytes bounds the size of JSON request bodies.  Large data must be
// passed through file resources, as the unified API prescribes.
const MaxBodyBytes = 16 << 20

// ErrorBody is the JSON error representation returned by all services.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// jsonBufs pools WriteJSON's response buffers.  A buffer that grew past
// maxPooledJSON (a huge listing) goes to the garbage collector instead, so
// one outlier does not pin its memory in the pool.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledJSON = 1 << 20

// WriteJSON encodes v as compact JSON with the given status code.  The body
// is appended to one pooled buffer before anything is sent, so it goes out
// in one write framed by Content-Length, and a value that fails to encode
// answers 500 with an ErrorBody instead of a 200 and a truncated body.
// A value with an AppendJSON method appends itself to the buffer; any other
// goes through encoding/json.  Either way the body ends in the newline
// json.Encoder writes.  Responses are read by programs; only /status and
// mcctl indent for humans.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := jsonBufs.Get().(*[]byte)
	b, err := appendJSON((*bp)[:0], v)
	if err != nil {
		log.Printf("rest: encode response: %v", err)
		status = http.StatusInternalServerError
		b, _ = appendJSON((*bp)[:0], ErrorBody{Error: "encode response: " + err.Error(), Status: status})
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledJSON {
		*bp = b
		jsonBufs.Put(bp)
	}
}

// jsonContentType is the Content-Type value of every WriteJSON answer,
// shared by their header maps; net/http only reads it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// appendJSON appends v's JSON encoding and json.Encoder's newline to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	if a, ok := v.(core.JSONAppender); ok {
		out, err := a.AppendJSON(b)
		if err != nil {
			return nil, err
		}
		return append(out, '\n'), nil
	}
	buf := bytes.NewBuffer(b) // writes land in b's spare capacity
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ETagMatch reports whether an If-None-Match header value matches the given
// entity tag.  Weak comparison is used (the W/ prefix is ignored), and the
// wildcard "*" matches any representation, per RFC 9110 §13.1.2.
func ETagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// ServeJSONBytes writes a precomputed JSON representation with its entity
// tag, answering conditional requests (If-None-Match) with 304 Not Modified.
// Serving immutable bytes skips the per-request encoding of WriteJSON, and
// the 304 path skips the body transfer entirely — the HTTP-native caching
// the REST style prescribes for stable resources such as service
// descriptions.
func ServeJSONBytes(w http.ResponseWriter, r *http.Request, etag string, body []byte) {
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	if ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(body)
	}
}

// WriteError maps a platform error onto an HTTP status and writes the JSON
// error body.  Unknown errors become 500.  Transient conditions
// (core.UnavailableError) additionally advertise their retry hint through
// the Retry-After header, which the client retry policy honours.
func WriteError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	var unavail *core.UnavailableError
	if asErrType(err, &unavail) && unavail.RetryAfter > 0 {
		secs := int(math.Ceil(unavail.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, status, ErrorBody{Error: err.Error(), Status: status})
}

// StatusOf returns the HTTP status code a platform error maps to.
func StatusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case core.IsNotFound(err):
		return http.StatusNotFound
	case isType[*core.BadRequestError](err):
		return http.StatusBadRequest
	case isType[*core.ConflictError](err):
		return http.StatusConflict
	case isType[*core.ForbiddenError](err):
		return http.StatusForbidden
	case isType[*core.UnavailableError](err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func isType[T error](err error) bool {
	var t T
	return asErrType(err, &t)
}

// asErrType walks the Unwrap chain looking for an error of type T.
func asErrType[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// ReadJSON decodes the request body into v, enforcing the body size limit
// and rejecting trailing garbage.  The body is read once, into a pooled
// buffer.  A nil core.Values target takes core.DecodeValues; any other
// target, and a body that path declines, goes through json.Decoder over
// the same bytes, so what is accepted, what is decoded and every error
// text are json.Decoder's.
func ReadJSON(r *http.Request, v any) error {
	bp := jsonBufs.Get().(*[]byte)
	body, rerr := ReadBody((*bp)[:0], r.Body)
	err := decodeJSON(body, rerr, v)
	if cap(body) <= maxPooledJSON {
		*bp = body
		jsonBufs.Put(bp)
	}
	return err
}

// decodeJSON decodes body, read up to the read error rerr, into v as
// json.Decoder decodes the body it reads, then requires no further value.
func decodeJSON(body []byte, rerr error, v any) error {
	if in, ok := v.(*core.Values); ok && in != nil && *in == nil && rerr == nil {
		if m, ok := core.DecodeValues(body); ok {
			*in = m
			return nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	if err := dec.Decode(v); err != nil {
		return core.ErrBadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return core.ErrBadRequest("trailing data after JSON body")
	}
	return nil
}

// errReader fails every read with err: the read error that ended a body,
// replayed after its bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// ReadBody appends what body yields to b until it ends, as io.ReadAll
// does, and returns the read error that ended it (nil at io.EOF).  Like
// http.MaxBytesReader, it keeps at most MaxBodyBytes and fails a longer
// body with *http.MaxBytesError.
func ReadBody(b []byte, body io.Reader) ([]byte, error) {
	start := len(b)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		// One byte past the limit tells a body at the limit from a longer
		// one.
		n, err := body.Read(b[len(b):min(cap(b), start+MaxBodyBytes+1)])
		b = b[:len(b)+n]
		if len(b)-start > MaxBodyBytes {
			return b[:start+MaxBodyBytes], &http.MaxBytesError{Limit: MaxBodyBytes}
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// WaitMaxHeader advertises the server's long-poll/idle-stream ceiling
// (Options.MaxWaitWindow) on blocking-GET and SSE responses, as a Go
// duration string.  Clients shrink their requested windows to it instead
// of asking for waits the server will silently clamp.
const WaitMaxHeader = "Wait-Max"

// ParseWait extracts the UWS-style blocking-GET window from the ?wait=
// parameter of a request's parsed query (the caller parses it, so a
// handler that reads other parameters too parses it once).  Absent means
// "no wait" (ok=false, no error); present but unparseable or non-positive
// is a client error — previously such values were silently ignored, so a
// caller that thought it long-polled got an instant poll storm instead.
func ParseWait(q url.Values) (d time.Duration, ok bool, err error) {
	s := q.Get("wait")
	if s == "" {
		return 0, false, nil
	}
	d, perr := time.ParseDuration(s)
	if perr != nil || d <= 0 {
		return 0, false, core.ErrBadRequest(
			"invalid wait parameter %q: want a positive duration such as 10s", s)
	}
	return d, true, nil
}

// NewMux builds the ServeMux of one server tier from core.Routes.  Each
// route the tier answers is served by handlers[route.Label], except
// /metrics and /status, which serve the process registry; a route without
// a handler is a programming error and panics.  guard, when non-nil, wraps
// every route that is not infrastructure.  The matched route's label
// reaches obs.Instrument, and a path no route matches answers a JSON 404.
func NewMux(tier core.Tier, handlers map[string]http.HandlerFunc, guard func(http.HandlerFunc) http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range core.Routes {
		if rt.Tiers&tier == 0 {
			continue
		}
		h := handlers[rt.Label]
		switch rt.Label {
		case "metrics":
			h = obs.MetricsHandler().ServeHTTP
		case "status":
			h = obs.StatusHandler().ServeHTTP
		}
		if h == nil {
			panic("rest: no handler for route " + rt.Pattern)
		}
		if guard != nil && !rt.Infra {
			h = guard(h)
		}
		mux.Handle(rt.Pattern, obs.Route(rt.Label, h))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, core.ErrNotFound("resource", r.URL.Path))
	})
	return mux
}

// WantsHTML reports whether the client prefers an HTML representation
// (a web browser), which triggers the container's auto-generated web UI.
func WantsHTML(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	htmlPos := strings.Index(accept, "text/html")
	if htmlPos < 0 {
		return false
	}
	jsonPos := strings.Index(accept, "application/json")
	return jsonPos < 0 || htmlPos < jsonPos
}

// MethodNotAllowed writes a 405 with the allowed methods advertised.
func MethodNotAllowed(w http.ResponseWriter, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	WriteJSON(w, http.StatusMethodNotAllowed, ErrorBody{
		Error:  fmt.Sprintf("method not allowed; allowed: %s", strings.Join(allowed, ", ")),
		Status: http.StatusMethodNotAllowed,
	})
}

// Drain reads and discards the remainder of a response body so the
// underlying connection can be reused, then closes it.
func Drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, MaxBodyBytes))
	_ = body.Close()
}
