package container

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFileStoreDedupSharesBlobs(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("diffractometry curve "), 1024)

	var ids []string
	for i := 0; i < 8; i++ {
		id, err := fs.Put(bytes.NewReader(payload), fmt.Sprintf("job%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	files, blobs, logical, physical := fs.Stats()
	if files != 8 || blobs != 1 {
		t.Fatalf("got %d files / %d blobs, want 8 files sharing 1 blob", files, blobs)
	}
	if logical != 8*int64(len(payload)) || physical != int64(len(payload)) {
		t.Fatalf("logical=%d physical=%d, want %d and %d",
			logical, physical, 8*len(payload), len(payload))
	}

	// All IDs resolve to the same content and the same digest.
	d0, err := fs.Digest(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if d, _ := fs.Digest(id); d != d0 {
			t.Fatalf("digest mismatch: %s vs %s", d, d0)
		}
		got, err := fs.ReadAll(id)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("content mismatch for %s: %v", id, err)
		}
	}

	// Deleting all but one ID keeps the blob; deleting the last removes it.
	for _, id := range ids[:7] {
		if err := fs.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.ReadAll(ids[7]); err != nil {
		t.Fatalf("surviving ID unreadable after sibling deletes: %v", err)
	}
	if err := fs.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	files, blobs, logical, physical = fs.Stats()
	if files != 0 || blobs != 0 || logical != 0 || physical != 0 {
		t.Fatalf("store not empty after deleting all IDs: files=%d blobs=%d logical=%d physical=%d",
			files, blobs, logical, physical)
	}
}

func TestFileStoreDedupAcrossPutKinds(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("identical bytes through three ingestion paths")

	id1, err := fs.Put(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := fs.PutBytes(payload, "")
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "out.dat")
	if err := os.WriteFile(src, payload, 0o600); err != nil {
		t.Fatal(err)
	}
	id3, err := fs.PutFile(src, "jobX")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id2 == id3 {
		t.Fatal("IDs must stay distinct even when content dedups")
	}
	if _, blobs, _, _ := fs.Stats(); blobs != 1 {
		t.Fatalf("got %d blobs, want 1 shared across Put/PutBytes/PutFile", blobs)
	}
}

func TestFileStoreConcurrentIdenticalPuts(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 64<<10)
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := fs.Put(bytes.NewReader(payload), "")
			if err != nil {
				errs <- err
				return
			}
			got, err := fs.ReadAll(id)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- fmt.Errorf("content mismatch for %s", id)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	files, blobs, _, _ := fs.Stats()
	if files != writers || blobs != 1 {
		t.Fatalf("got %d files / %d blobs, want %d files on 1 blob", files, blobs, writers)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestFileStorePutErrorsNameJob(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.PutFile(filepath.Join(t.TempDir(), "absent"), "job42"); err == nil {
		t.Fatal("expected error for missing source file")
	} else if !strings.Contains(err.Error(), "job42") {
		t.Fatalf("error does not name the job: %v", err)
	}
}

// TestFileStoreDeleteRacesIdenticalPut deletes the last ID of a blob while
// the same content is stored again: the new ID must read the content
// whichever of the two takes the store's lock first.  A Delete that unlinks
// the blob after releasing the lock can remove the blob the Put has just
// renamed into place.  Each iteration starts the Delete a little later, so
// the runs sweep it across the Put's commit.
func TestFileStoreDeleteRacesIdenticalPut(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the same bytes, stored again while the last copy is deleted")
	for i := 0; i < 3000; i++ {
		old, err := fs.PutBytes(payload, "")
		if err != nil {
			t.Fatal(err)
		}
		delay := time.Duration(i%100) * time.Microsecond
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < delay; {
			}
			_ = fs.Delete(old)
		}()
		id, err := fs.Put(bytes.NewReader(payload), "")
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadAll(id)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("iteration %d: %s reads %q, %v", i, id, got, err)
		}
		if err := fs.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}
