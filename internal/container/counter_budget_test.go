package container_test

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mathcloud/internal/container"
	"mathcloud/internal/journal"
)

// Exact journal record counts of Table 1 cycles on a journaled container.
// The counts are exact integers: a change may lower one in the change that
// earns it, and never raises one to pass.
const counterCycles = 16

// TestJournalCountTable1Cycle: each Table 1 cycle (submit ?wait= until
// DONE, GET, DELETE through APIHandler) journals exactly one job image, one
// job_end record and one job_purge record, and no start record; with
// checkpoints off the journal holds nothing else.
func TestJournalCountTable1Cycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	var calls atomic.Int64
	c, err := container.New(container.Options{
		Workers: 2, JournalDir: dir, WALSync: journal.SyncOff, SnapshotInterval: -1, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var closeOnce sync.Once
	closeC := func() { closeOnce.Do(c.Close) }
	defer closeC()
	if err := c.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	deploySweepService(t, c, "counted", false, &calls)
	h := c.APIHandler()
	for i := 0; i < counterCycles; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/services/counted?wait=10s", strings.NewReader(`{"x":1}`)))
		if w.Code != http.StatusCreated || !bytes.Contains(w.Body.Bytes(), []byte(`"state":"DONE"`)) {
			t.Fatalf("cycle %d submit: %d %s", i, w.Code, w.Body)
		}
		loc := w.Header().Get("Location")
		path := loc[strings.Index(loc, "/services/"):]
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("cycle %d %s %s: %d %s", i, method, path, w.Code, w.Body)
			}
		}
	}
	if got := calls.Load(); got != counterCycles {
		t.Fatalf("adapter ran %d times, want %d", got, counterCycles)
	}
	closeC()

	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jl.Close()
	got := map[string]int{}
	if err := jl.Replay(func(kind journal.Kind, _ []byte) error {
		got[kind.String()]++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := map[string]int{"job": counterCycles, "job_end": counterCycles, "job_purge": counterCycles}
	if !maps.Equal(got, want) {
		t.Fatalf("%d cycles journaled %v, want exactly %v (no job_start)", counterCycles, got, want)
	}
}
