package container

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/core"
)

// --- Cross-replica ingestion (FileStore.IngestRemote) ---------------------

func TestIngestRemoteRejectsCorruptedTransfer(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("federated blob payload")
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	id := "r01-0123456789abcdef0123456789abcdef"

	// A corrupted transfer (bytes do not hash to the advertised digest) is
	// rejected without registering anything.
	err = fs.IngestRemote(id, digest, bytes.NewReader([]byte("corrupted bytes")), "")
	if err == nil {
		t.Fatal("corrupted transfer ingested without error")
	}
	if _, err := fs.Digest(id); err == nil {
		t.Fatal("corrupted transfer registered the file ID")
	}
	if files, blobs, _, physical := fs.Stats(); files != 0 || blobs != 0 || physical != 0 {
		t.Fatalf("corrupted transfer left CAS state: files=%d blobs=%d physical=%d", files, blobs, physical)
	}

	// The failure did not poison the store: a clean retry of the same ID
	// succeeds and round-trips the bytes.
	if err := fs.IngestRemote(id, digest, bytes.NewReader(payload), ""); err != nil {
		t.Fatalf("retry after corruption: %v", err)
	}
	got, err := fs.ReadAll(id)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadAll after retry: %v %q", err, got)
	}
	if d, _ := fs.Digest(id); d != digest {
		t.Fatalf("digest = %s, want %s", d, digest)
	}
	// Re-ingesting an existing ID is a no-op.
	if err := fs.IngestRemote(id, digest, bytes.NewReader(payload), ""); err != nil {
		t.Fatalf("idempotent re-ingest: %v", err)
	}
	if files, blobs, _, _ := fs.Stats(); files != 1 || blobs != 1 {
		t.Fatalf("after re-ingest: files=%d blobs=%d, want 1/1", files, blobs)
	}
}

func TestIngestRemoteDedupsAgainstLocalContent(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("shared curve "), 256)
	localID, err := fs.Put(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := fs.Digest(localID)
	foreign := "r09-00000000000000000000000000000001"
	if err := fs.IngestRemote(foreign, digest, bytes.NewReader(payload), ""); err != nil {
		t.Fatal(err)
	}
	files, blobs, logical, physical := fs.Stats()
	if files != 2 || blobs != 1 {
		t.Fatalf("files=%d blobs=%d, want two IDs sharing one blob", files, blobs)
	}
	if logical != 2*int64(len(payload)) || physical != int64(len(payload)) {
		t.Fatalf("logical=%d physical=%d", logical, physical)
	}
}

// --- Cross-replica fetch (Container.ensureLocalFile) ----------------------

// TestEnsureLocalFileSingleflight checks that concurrent consumers of the
// same foreign file ID trigger exactly one blob transfer, and that the
// pulled file is then served from the local store.
func TestEnsureLocalFileSingleflight(t *testing.T) {
	payload := bytes.Repeat([]byte("remote blob "), 512)
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	foreignID := "r01-fedcba9876543210fedcba9876543210"

	var hits atomic.Int64
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/files/"+foreignID {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		<-release // hold every fetcher in-flight until all waiters queued
		w.Header().Set(DigestHeader, digest)
		w.Write(payload)
	}))
	defer peer.Close()

	c, err := New(Options{Workers: 1, ReplicaID: "r02", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetBaseURL(peer.URL)

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.ensureLocalFile(t.Context(), foreignID, "")
		}(i)
	}
	// Let the flight leader reach the peer, then release the transfer.
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("peer served %d transfers for %d concurrent consumers, want 1", n, waiters)
	}
	got, err := c.Files().ReadAll(foreignID)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pulled file not readable locally: %v", err)
	}
	// A second ensure is a local fast path: no new transfer.
	if err := c.ensureLocalFile(t.Context(), foreignID, ""); err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("repeat ensure re-fetched (%d transfers)", n)
	}
}

// TestEnsureLocalFileSkipsLocalAndBareIDs pins the guard conditions: IDs
// without a foreign prefix never trigger a network fetch.
func TestEnsureLocalFileSkipsLocalAndBareIDs(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer peer.Close()

	c, err := New(Options{Workers: 1, ReplicaID: "r02", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetBaseURL(peer.URL)

	for _, id := range []string{
		"0123456789abcdef0123456789abcdef",     // bare pre-federation ID
		"r02-0123456789abcdef0123456789abcdef", // own prefix: missing means missing
	} {
		if err := c.ensureLocalFile(t.Context(), id, ""); err != nil {
			t.Fatalf("ensureLocalFile(%s): %v", id, err)
		}
	}
	if hits.Load() != 0 {
		t.Fatalf("local/bare IDs reached the network %d times", hits.Load())
	}
}

// TestPulledBlobIsReleasedWithItsConsumer is the leak regression: a blob
// pulled from another replica belongs to the job that pulled it (to the
// sweep, for sweep children) and leaves the consumer's store with it, while
// consumers that are still alive keep sharing one transfer.
func TestPulledBlobIsReleasedWithItsConsumer(t *testing.T) {
	payload := bytes.Repeat([]byte("borrowed blob "), 300)
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	foreignID := "r01-00112233445566778899aabbccddeeff"

	var transfers atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/files/"+foreignID {
			http.NotFound(w, r)
			return
		}
		transfers.Add(1)
		w.Header().Set(DigestHeader, digest)
		w.Write(payload)
	}))
	defer peer.Close()

	adapter.RegisterRequestFunc("fedtest.flen", func(_ context.Context, req *adapter.Request) (*adapter.Result, error) {
		data, err := os.ReadFile(req.Files["f"])
		if err != nil {
			return nil, err
		}
		return &adapter.Result{Outputs: core.Values{"len": float64(len(data))}}, nil
	})
	c, err := New(Options{Workers: 2, ReplicaID: "r02", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetBaseURL(peer.URL)
	if err := c.Deploy(ServiceConfig{
		Description: core.ServiceDescription{Name: "flen",
			Inputs:  []core.Param{{Name: "f"}, {Name: "n", Optional: true}},
			Outputs: []core.Param{{Name: "len"}}},
		Adapter: AdapterSpec{Kind: "native", Config: json.RawMessage(`{"function":"fedtest.flen"}`)},
	}); err != nil {
		t.Fatal(err)
	}
	run := func() *core.Job {
		t.Helper()
		job, err := c.Jobs().Submit(context.Background(), "flen", core.Values{"f": core.FileRef(foreignID)}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		done, err := c.Jobs().Wait(t.Context(), job.ID, 10*time.Second)
		if err != nil || done.State != core.StateDone || done.Outputs["len"] != float64(len(payload)) {
			t.Fatalf("consumer job = %+v, %v", done, err)
		}
		return done
	}
	base := c.Files().Count()

	// Two live consumers share one transfer and one local copy.
	first, second := run(), run()
	if n := transfers.Load(); n != 1 {
		t.Fatalf("%d transfers for two live consumers, want 1", n)
	}
	if n := c.Files().Count(); n != base+1 {
		t.Fatalf("store holds %d files with the pulled copy, want %d", n, base+1)
	}
	// The copy goes with the job that pulled it, not with a later reader.
	if _, err := c.Jobs().Delete(second.ID); err != nil {
		t.Fatal(err)
	}
	if n := c.Files().Count(); n != base+1 {
		t.Fatalf("deleting a reader that did not pull left %d files, want %d", n, base+1)
	}
	if _, err := c.Jobs().Delete(first.ID); err != nil {
		t.Fatal(err)
	}
	if n := c.Files().Count(); n != base {
		t.Fatalf("store holds %d files after the pulling job was deleted, want the pre-job %d", n, base)
	}
	// A later consumer simply pulls again.
	third := run()
	if n := transfers.Load(); n != 2 {
		t.Fatalf("%d transfers after the copy was released, want 2", n)
	}
	if _, err := c.Jobs().Delete(third.ID); err != nil {
		t.Fatal(err)
	}

	// A campaign pulls once for all its children and releases the copy when
	// its last child lands.
	sweep, err := c.Jobs().SubmitSweep(t.Context(), "flen", &core.SweepSpec{
		Template: core.Values{"f": core.FileRef(foreignID)},
		Axes:     map[string][]any{"n": {1.0, 2.0, 3.0, 4.0}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ended, err := c.Jobs().WaitSweep(t.Context(), sweep.ID, 10*time.Second)
	if err != nil || ended.Counts.Done != 4 {
		t.Fatalf("sweep = %+v, %v; want 4 children DONE", ended, err)
	}
	if n := transfers.Load(); n != 3 {
		t.Fatalf("%d transfers after a 4-wide sweep, want one more (3)", n)
	}
	if n := c.Files().Count(); n != base {
		t.Fatalf("store holds %d files after the sweep ended, want the pre-job %d", n, base)
	}
}
