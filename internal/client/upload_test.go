package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/rest"
)

// fakeUploads is a gateway stub in front of one replica, r01, for uploads.
// A routed upload is answered with a 307 to the replica, after the stub
// read the body when drain is set; anything else gets a 502.
type fakeUploads struct {
	gw, replica *httptest.Server

	mu     sync.Mutex
	drain  bool
	asked  []string // per gateway request: Prefer, Expect and Content-Length
	stored []string // the bodies the replica stored
}

func newFakeUploads(t *testing.T) *fakeUploads {
	t.Helper()
	f := &fakeUploads{}
	f.replica = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil || r.Method != http.MethodPost || r.URL.Path != "/files" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.stored = append(f.stored, string(data))
		f.mu.Unlock()
		uri := f.gw.URL + "/files/r01-0123456789abcdef0123456789abcdef"
		w.Header().Set(core.ReplicaHeader, "r01")
		rest.WriteJSON(w, http.StatusCreated, map[string]string{"uri": uri, "ref": core.FileRef(uri)})
	}))
	t.Cleanup(f.replica.Close)
	f.gw = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.asked = append(f.asked, r.Header.Get("Prefer")+" "+r.Header.Get("Expect")+" "+r.Header.Get("Content-Length"))
		drain := f.drain
		f.mu.Unlock()
		if r.Header.Get("Prefer") != core.RoutePreference {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		if drain {
			_, _ = io.Copy(io.Discard, r.Body)
		}
		w.Header().Set("Location", f.replica.URL+r.URL.RequestURI())
		w.Header().Set("Preference-Applied", core.RoutePreference)
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	t.Cleanup(f.gw.Close)
	return f
}

// seen returns what the gateway was asked and what the replica stored.
func (f *fakeUploads) seen() (asked, stored []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.asked, f.stored
}

// TestUploadFileRewindsSeeker uploads the tail of a temporary file, read
// from an offset, through a gateway that routes it.  The upload asks for
// its route with Expect: 100-continue and the length of that tail, and the
// replica stores exactly the tail — also when the gateway read the body
// before redirecting, so the redirect had to seek back to the offset.
func TestUploadFileRewindsSeeker(t *testing.T) {
	const content, offset = "0123456789 the bytes after the offset", 4
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, drain := range []bool{false, true} {
		f := newFakeUploads(t)
		f.drain = drain // before any request, so unlocked
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Seek(offset, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		ref, err := New().UploadFile(context.Background(), f.gw.URL, file)
		file.Close()
		if err != nil {
			t.Fatalf("drain %v: upload: %v", drain, err)
		}
		if !strings.HasPrefix(ref, core.FileRef(f.gw.URL+"/files/r01-")) {
			t.Fatalf("drain %v: upload answered %q", drain, ref)
		}
		tail := content[offset:]
		asked, stored := f.seen()
		want := core.RoutePreference + " 100-continue " + "33"
		if len(tail) != 33 || len(asked) != 1 || asked[0] != want {
			t.Fatalf("drain %v: gateway was asked %q, want one routed upload %q", drain, asked, want)
		}
		if len(stored) != 1 || stored[0] != tail {
			t.Fatalf("drain %v: replica stored %q, want %q", drain, stored, tail)
		}
	}
}

// TestUploadFileUnrewindableNotRouted: a reader the client cannot rewind
// could not follow a 307, so it is sent without the route preference.
func TestUploadFileUnrewindableNotRouted(t *testing.T) {
	f := newFakeUploads(t)
	c := &Client{HTTP: &http.Client{}, Retry: rest.NoRetry}
	_, err := c.UploadFile(context.Background(), f.gw.URL, io.MultiReader(strings.NewReader("once")))
	if api, ok := err.(*APIError); !ok || api.Status != http.StatusBadGateway {
		t.Fatalf("unrewindable upload: %v, want the stub's 502 for an unrouted upload", err)
	}
	if asked, _ := f.seen(); len(asked) != 1 || strings.HasPrefix(asked[0], core.RoutePreference) {
		t.Fatalf("gateway was asked %q, want one upload without the preference", asked)
	}
}

// lateTransport answers a routed upload's first attempt with a 307 at
// once and goes on reading that attempt's body afterwards, as a transport
// still writing it does; the redirected attempt reads its body only after
// that, or after a grace period.
type lateTransport struct {
	mu        sync.Mutex
	stored    string
	firstDone chan struct{} // closed when the first attempt's body is read and closed
}

func (lt *lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp := &http.Response{Request: r, Header: http.Header{}, Body: http.NoBody, ProtoMajor: 1, ProtoMinor: 1}
	if r.URL.Host == "gw.example" {
		go func() {
			time.Sleep(50 * time.Millisecond)
			_, _ = io.Copy(io.Discard, r.Body)
			r.Body.Close()
			close(lt.firstDone)
		}()
		resp.StatusCode = http.StatusTemporaryRedirect
		resp.Header.Set("Location", "http://replica.example/files")
		resp.Header.Set("Preference-Applied", core.RoutePreference)
		return resp, nil
	}
	select {
	case <-lt.firstDone:
	case <-time.After(time.Second):
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	lt.mu.Lock()
	lt.stored = string(data)
	lt.mu.Unlock()
	uri := "http://gw.example/files/r01-0123456789abcdef0123456789abcdef"
	resp.StatusCode = http.StatusCreated
	resp.Header.Set(core.ReplicaHeader, "r01")
	resp.Body = io.NopCloser(strings.NewReader(`{"uri": "` + uri + `", "ref": "` + core.FileRef(uri) + `"}`))
	return resp, nil
}

// TestUploadFileStopsEarlierAttempt: the transport of a redirected
// attempt may still be reading the file when the redirect is followed.
// The earlier attempt's body reads nothing once the next one exists, so
// the redirected attempt sends the file's bytes, not what the earlier
// reader left of them.
func TestUploadFileStopsEarlierAttempt(t *testing.T) {
	const content = "the whole file, sent once to the replica"
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	lt := &lateTransport{firstDone: make(chan struct{})}
	c := &Client{HTTP: &http.Client{Transport: lt}, Retry: rest.NoRetry}
	if _, err := c.UploadFile(context.Background(), "http://gw.example", file); err != nil {
		t.Fatalf("upload: %v", err)
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.stored != content {
		t.Fatalf("replica stored %q, want %q", lt.stored, content)
	}
}
