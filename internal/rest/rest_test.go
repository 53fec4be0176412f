package rest

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mathcloud/internal/core"
)

func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{core.ErrNotFound("job", "x"), 404},
		{core.ErrBadRequest("bad"), 400},
		{core.ErrConflict("busy"), 409},
		{core.ErrForbidden("no"), 403},
		{errors.New("mystery failure"), 500},
	}
	for _, tc := range cases {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestWriteErrorBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, core.ErrNotFound("service", "x"))
	if rec.Code != 404 {
		t.Fatalf("code = %d", rec.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != 404 || !strings.Contains(body.Error, "not found") {
		t.Errorf("body = %+v", body)
	}
}

// TestWriteJSONCompactAndFramed checks that a response is compact JSON
// announced by a Content-Length equal to the body, whether encoding/json or
// the value's own AppendJSON wrote it.
func TestWriteJSONCompactAndFramed(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{
			map[string]any{"jobs": []map[string]any{{"id": "a", "state": "DONE"}}, "total": 1},
			`{"jobs":[{"id":"a","state":"DONE"}],"total":1}`,
		},
		{
			&core.JobPage{Jobs: []*core.Job{{ID: "a", State: core.StateDone}}, Total: 1},
			`{"jobs":[{"id":"a","service":"","state":"DONE","created":"0001-01-01T00:00:00Z",` +
				`"submitted":"0001-01-01T00:00:00Z","started":"0001-01-01T00:00:00Z",` +
				`"finished":"0001-01-01T00:00:00Z","destruction":"0001-01-01T00:00:00Z"}],` +
				`"limit":0,"offset":0,"total":1}`,
		},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, tc.v)
		body := rec.Body.Bytes()
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("%T: Content-Length = %q, body is %d bytes", tc.v, got, len(body))
		}
		if want := tc.want + "\n"; string(body) != want {
			t.Fatalf("%T: body = %q, want %q", tc.v, body, want)
		}
		var back map[string]any
		if err := json.Unmarshal(body, &back); err != nil || back["total"] != 1.0 {
			t.Fatalf("%T: body decodes to %v, %v", tc.v, back, err)
		}
	}
}

// TestWriteJSONEncodeFailureAnswers500 checks that a value encoding/json or
// its own AppendJSON refuses yields a 500 with an ErrorBody, not a 200 with
// a truncated body.
func TestWriteJSONEncodeFailureAnswers500(t *testing.T) {
	for _, v := range []any{
		map[string]any{"id": "a", "x": math.Inf(1)},
		&core.Job{ID: "a", Outputs: core.Values{"x": math.Inf(1)}},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%T: code = %d, want 500", v, rec.Code)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%T: body %q is not an ErrorBody: %v", v, rec.Body.Bytes(), err)
		}
		if body.Status != http.StatusInternalServerError || !strings.Contains(body.Error, "encode") {
			t.Fatalf("%T: body = %+v", v, body)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%T: Content-Length = %q, body is %d bytes", v, got, rec.Body.Len())
		}
	}
}

func TestReadJSON(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"a": 1}`))
	var v map[string]any
	if err := ReadJSON(r, &v); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if v["a"] != 1.0 {
		t.Errorf("v = %v", v)
	}

	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"a": 1} trailing`))
	if err := ReadJSON(r, &v); err == nil {
		t.Error("trailing garbage accepted")
	}
	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{nope`))
	if err := ReadJSON(r, &v); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestWantsHTML(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"text/html,application/xhtml+xml", true},
		{"application/json", false},
		{"", false},
		{"application/json, text/html", false}, // JSON preferred
		{"text/html, application/json", true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set("Accept", tc.accept)
		if got := WantsHTML(r); got != tc.want {
			t.Errorf("WantsHTML(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	MethodNotAllowed(rec, http.MethodGet, http.MethodPost)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("code = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, POST" {
		t.Errorf("Allow = %q", allow)
	}
}

// countingWriter is a plain io.Writer with no ReadFrom of its own.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestCopyFromFileAllocBudget pins Copy from an *os.File: the copy goes
// through the pooled buffer, not through the file's WriteTo and its own
// 32 KiB buffer, and the wrappers that hide WriteTo are pooled with it.
// The budget is a constant of alloc_budget_test.go, and of
// alloc_budget_race_test.go under the race detector.
func TestCopyFromFileAllocBudget(t *testing.T) {
	const size = 1 << 20
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, make([]byte, size), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var w countingWriter
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if n, err := Copy(&w, f); n != size || err != nil {
			t.Fatalf("Copy = %d, %v", n, err)
		}
	})
	t.Logf("Copy of a %d-byte file: %.2f allocations (budget %v)", size, allocs, copyAllocBudget)
	if allocs > copyAllocBudget {
		t.Fatalf("Copy of a file allocates %.2f times, budget %v", allocs, copyAllocBudget)
	}
}
