package container

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
)

// TestStageFileRejectsOversizedRemote verifies the staging overflow guard:
// a remote file larger than maxFileBytes must fail the transfer with a
// clear error instead of being silently truncated and staged as complete.
func TestStageFileRejectsOversizedRemote(t *testing.T) {
	old := maxFileBytes
	maxFileBytes = 1024
	t.Cleanup(func() { maxFileBytes = old })

	payload := bytes.Repeat([]byte("x"), 2048)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	}))
	t.Cleanup(srv.Close)

	c, err := New(Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	dir := t.TempDir()
	dst := filepath.Join(dir, "in_data")
	err = c.jobs.stageFile(context.Background(), srv.URL+"/big", dst, "")
	if err == nil {
		t.Fatal("oversized remote file staged without error")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error %q does not mention the staging limit", err)
	}
	if _, statErr := os.Stat(dst); statErr == nil {
		t.Error("partial file left behind after overflow")
	}

	// Exactly at the limit must still work.
	srvOK := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload[:maxFileBytes])
	}))
	t.Cleanup(srvOK.Close)
	if err := c.jobs.stageFile(context.Background(), srvOK.URL+"/fits", dst, ""); err != nil {
		t.Fatalf("file exactly at the limit rejected: %v", err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != maxFileBytes {
		t.Errorf("staged %d bytes, want %d", len(data), maxFileBytes)
	}
}

// TestOversizedInputFailsJob runs the same guard end to end: a job whose
// file input overflows the limit must finish in the ERROR state.
func TestOversizedInputFailsJob(t *testing.T) {
	old := maxFileBytes
	maxFileBytes = 1024
	t.Cleanup(func() { maxFileBytes = old })

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("y"), 4096))
	}))
	t.Cleanup(srv.Close)

	adapter.RegisterFunc("staging.noop", func(_ context.Context, _ core.Values) (core.Values, error) {
		return core.Values{}, nil
	})
	c, err := New(Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(ServiceConfig{
		Description: core.ServiceDescription{Name: "noop",
			Inputs: []core.Param{{Name: "data"}}},
		Adapter: AdapterSpec{Kind: "native",
			Config: json.RawMessage(`{"function":"staging.noop"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	job, err := c.Jobs().Submit(context.Background(), "noop", core.Values{"data": core.FileRef(srv.URL + "/big")}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != core.StateError {
		t.Fatalf("state = %s, want %s", done.State, core.StateError)
	}
	if !strings.Contains(done.Error, "exceeds") {
		t.Errorf("job error %q does not mention the staging limit", done.Error)
	}
}

// TestScriptJobCreatesNoWorkDirUnlessFilesAreStaged pins the lazy work
// directory: the script adapter never reads Request.WorkDir, so a script job
// without file inputs creates nothing under workRoot, while the same service
// given a file input still gets a directory holding the staged file.
func TestScriptJobCreatesNoWorkDirUnlessFilesAreStaged(t *testing.T) {
	c, err := New(Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Deploy(ServiceConfig{
		Description: core.ServiceDescription{Name: "inc",
			Inputs:  []core.Param{{Name: "x"}, {Name: "data", Optional: true}},
			Outputs: []core.Param{{Name: "y"}}},
		Adapter: AdapterSpec{Kind: "script",
			Config: json.RawMessage(`{"script":"out.y = in.x + 1"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	svc, err := c.service("inc")
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		t.Helper()
		es, err := os.ReadDir(c.workRoot)
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	prepared := func(inputs core.Values) *runningJob {
		t.Helper()
		fileInputs, err := svc.desc.CheckInputs(inputs)
		if err != nil {
			t.Fatal(err)
		}
		rec := newJobRecord(jobRequest{id: core.NewID(), service: "inc", inputs: inputs, fileInputs: fileInputs})
		rj := &rec.run
		*rj = runningJob{jm: c.jobs, rec: rec, parent: context.Background()}
		if err := rj.prepare(svc.adapter); err != nil {
			t.Fatal(err)
		}
		return rj
	}
	base := entries()

	plain := prepared(core.Values{"x": 1.0})
	if plain.workDir != "" || plain.req.WorkDir != "" || entries() != base {
		t.Fatalf("script job without file inputs: workDir %q, %d entries created under workRoot, want none",
			plain.workDir, entries()-base)
	}
	plain.cleanup()

	content := []byte("staged for a script")
	id, err := c.files.PutBytes(content, "")
	if err != nil {
		t.Fatal(err)
	}
	withFile := prepared(core.Values{"x": 1.0, "data": core.FileRef(id)})
	if withFile.workDir == "" || entries() != base+1 {
		t.Fatalf("script job with a file input: workDir %q, %d entries created, want one directory",
			withFile.workDir, entries()-base)
	}
	got, err := os.ReadFile(withFile.req.Files["data"])
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("staged file = %q, %v; want the uploaded content", got, err)
	}
	if filepath.Dir(withFile.req.Files["data"]) != withFile.workDir {
		t.Fatalf("file staged at %s, outside the work dir %s", withFile.req.Files["data"], withFile.workDir)
	}
	withFile.cleanup()
	if entries() != base {
		t.Fatalf("%d entries left under workRoot after cleanup", entries()-base)
	}

	// End to end the plain job still computes, and leaves nothing behind.
	job, err := c.Jobs().Submit(context.Background(), "inc", core.Values{"x": 41.0}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Jobs().Wait(context.Background(), job.ID, 10*time.Second)
	if err != nil || done.State != core.StateDone || done.Outputs["y"] != 42.0 {
		t.Fatalf("inc job = %+v, %v; want DONE with y=42", done, err)
	}
	if entries() != base {
		t.Fatalf("%d entries left under workRoot after the job", entries()-base)
	}
}

// TestFileStoreStageToAndPutFile covers the streaming file-plane
// primitives: staging out of the store into a work dir and ingesting an
// adapter output back, both without heap-sized buffers.
func TestFileStoreStageToAndPutFile(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("stream"), 10000)
	id, err := fs.PutBytes(content, "")
	if err != nil {
		t.Fatal(err)
	}

	work := t.TempDir()
	dst := filepath.Join(work, "in_data")
	if err := fs.StageTo(id, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("staged content differs from stored content")
	}
	if err := fs.StageTo("ffffffffffffffffffffffffffffffff", filepath.Join(work, "missing")); err == nil {
		t.Error("staging a missing file succeeded")
	}

	// Ingest a work-dir output and check it survives work-dir removal.
	out := filepath.Join(work, "result.txt")
	if err := os.WriteFile(out, content, 0o644); err != nil {
		t.Fatal(err)
	}
	outID, err := fs.PutFile(out, "job1")
	if err != nil {
		t.Fatal(err)
	}
	if size, err := fs.Size(outID); err != nil || size != int64(len(content)) {
		t.Fatalf("size = %d, %v; want %d", size, err, len(content))
	}
	if err := os.RemoveAll(work); err != nil {
		t.Fatal(err)
	}
	round, err := fs.ReadAll(outID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, content) {
		t.Error("ingested content differs after work dir removal")
	}
	if n := fs.DeleteOwnedBy("job1"); n != 1 {
		t.Errorf("DeleteOwnedBy removed %d files, want 1", n)
	}
}
