package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type testRecord struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// replayAll collects every replayed record of a fresh journal over dir.
func replayAll(t *testing.T, dir string) []testRecord {
	t.Helper()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	var out []testRecord
	err = j.Replay(func(kind Kind, data []byte) error {
		if kind != KindJob {
			return fmt.Errorf("unexpected kind %v", kind)
		}
		var r testRecord
		if err := Decode(data, &r); err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Append(KindJob, testRecord{N: i, S: "payload"}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, r := range got {
		if r.N != i || r.S != "payload" {
			t.Fatalf("record %d = %+v, want {%d payload}", i, r, i)
		}
	}
}

func TestTornTailEndsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(KindJob, testRecord{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last record mid-body, as a crash during the
	// final write(2) would.
	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(got))
	}
}

func TestCorruptRecordStopsSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(KindJob, testRecord{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the third record's body: its CRC check must fail
	// and end the segment's replay there.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 2; i++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:off+4]))
	}
	data[off+frameHeader+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after corruption, want 2", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.Append(KindJob, testRecord{N: i, S: "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", segs)
	}
	got := replayAll(t, dir)
	if len(got) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(got))
	}
}

func TestSnapshotTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := j.Append(KindJob, testRecord{N: i, S: "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot folds the whole prefix into two records.
	err = j.Snapshot(func(app func(Kind, any) error) error {
		if err := app(KindJob, testRecord{N: 1000}); err != nil {
			return err
		}
		return app(KindJob, testRecord{N: 1001})
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Tail records after the snapshot cut must survive replay.
	if err := j.Append(KindJob, testRecord{N: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	want := []int{1000, 1001, 2000}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (%v)", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].N != w {
			t.Fatalf("record %d = %d, want %d", i, got[i].N, w)
		}
	}
	// Pre-snapshot segments are gone.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok && seq < 2 {
			t.Fatalf("stale segment %s survived truncation", e.Name())
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append(KindJob, testRecord{N: g*each + i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != goroutines*each {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*each)
	}
	seen := make(map[int]bool, len(got))
	for _, r := range got {
		if seen[r.N] {
			t.Fatalf("duplicate record %d", r.N)
		}
		seen[r.N] = true
	}
}

func TestSyncBatchModeDurableAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Mode: SyncBatch, BatchInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append(KindJob, testRecord{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the background syncer a tick, then close (which syncs anyway).
	time.Sleep(5 * time.Millisecond)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(KindJob, testRecord{N: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestCloseWaitsForRunningCheckpoint pins the shutdown order owners rely on:
// Close stops the checkpoint loop and waits out a running checkpoint, which
// still writes to an open log, before it closes the journal.
func TestCloseWaitsForRunningCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var snapErr error
	j.StartCheckpoints(time.Millisecond, 0, func() {
		once.Do(func() {
			close(started)
			<-release
			snapErr = j.Snapshot(func(app func(Kind, any) error) error {
				return app(KindJob, testRecord{N: 7})
			})
		})
	})
	<-started
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a checkpoint was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if snapErr != nil {
		t.Fatalf("checkpoint during Close: %v", snapErr)
	}
	if got := replayAll(t, dir); len(got) != 1 || got[0].N != 7 {
		t.Fatalf("replay after the checkpoint = %+v, want the one snapshotted record", got)
	}
}

func TestParseSyncMode(t *testing.T) {
	cases := map[string]SyncMode{"off": SyncOff, "": SyncOff, "batch": SyncBatch, "always": SyncAlways, "ALWAYS": SyncAlways}
	for in, want := range cases {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("ParseSyncMode accepted bogus mode")
	}
}

func TestInterruptedSnapshotTmpCleaned(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(KindJob, testRecord{N: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-snapshot: a leftover .tmp file must not be
	// treated as a snapshot, and Open must discard it.
	tmp := filepath.Join(dir, snapshotName(9)+".tmp")
	if err := os.WriteFile(tmp, []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 1 || got[0].N != 7 {
		t.Fatalf("replay after interrupted snapshot = %v, want [{7}]", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover snapshot tmp file survived Open")
	}
}

func TestLiveBytesTracksAppendsAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.LiveBytes() != 0 {
		t.Fatalf("fresh journal LiveBytes = %d, want 0", j.LiveBytes())
	}
	for i := 0; i < 50; i++ {
		if err := j.Append(KindJob, testRecord{N: i, S: "livebytes payload"}); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.LiveBytes()
	if grown <= 0 {
		t.Fatalf("LiveBytes after 50 appends = %d, want > 0", grown)
	}

	// A snapshot truncates the replayed prefix; the live tail shrinks to the
	// snapshot segment boundary (everything before the cut is removed).
	if err := j.Snapshot(func(app func(kind Kind, v any) error) error {
		return app(KindJob, testRecord{N: -1, S: "state"})
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	afterSnap := j.LiveBytes()
	if afterSnap >= grown {
		t.Fatalf("LiveBytes after snapshot = %d, want < %d (pre-snapshot)", afterSnap, grown)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening inherits the surviving tail as live bytes, so a restarted
	// container's size trigger sees the same pressure.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Replay(func(Kind, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if j2.LiveBytes() != afterSnap {
		t.Fatalf("reopened LiveBytes = %d, want %d", j2.LiveBytes(), afterSnap)
	}
}
