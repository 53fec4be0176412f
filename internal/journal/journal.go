// Package journal is the durability subsystem of the platform (DESIGN.md
// §5i): a segmented write-ahead log with CRC-framed records, group-commit
// fsync batching, and periodic snapshots with log truncation.
//
// The journal records every control-plane mutation — job lifecycle
// transitions, sweep membership, catalogue registrations, memo-table
// entries, file-store references — as a typed, JSON-encoded record.  On
// boot the owner replays the latest snapshot plus the segments written
// after it and rebuilds its in-memory state; everything else (the
// content-addressed blobs of the FileStore) already lives on disk.
//
// Record framing is `[len uint32][crc32 uint32][payload]`, little-endian,
// where payload is one kind byte followed by the JSON body.  A torn tail
// (the record being written when the process died) fails its length or CRC
// check and cleanly ends replay of that segment; every record before it is
// intact because each append is a single write(2) of a complete frame.
//
// Durability modes trade write latency for power-failure safety:
//
//   - SyncOff:    append returns after write(2).  State survives process
//     death (kill -9) via the page cache, but not power loss.
//   - SyncBatch:  a background syncer fsyncs the active segment every
//     BatchInterval.  Bounded loss window, near-SyncOff latency.
//   - SyncAlways: append returns only after the record is fsynced.
//     Concurrent appenders share one fsync (group commit): the first
//     waiter becomes the leader, syncs once for every record written so
//     far, and wakes the rest.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// WAL metric families (DESIGN.md §5d, §5i).
var (
	metAppends = obs.NewCounter("mc_wal_appends_total",
		"Records appended to the write-ahead journal.")
	metFsyncs = obs.NewCounter("mc_wal_fsyncs_total",
		"fsync calls issued by the journal; under group commit one fsync covers many appends.")
	metBytes = obs.NewCounter("mc_wal_bytes_total",
		"Bytes written to the write-ahead journal, including framing.")
	metSnapshotSeconds = obs.NewHistogram("mc_snapshot_seconds",
		"Time to write one journal snapshot and truncate the log.",
		obs.DurationBuckets)
)

// SyncMode selects when appends are made durable.
type SyncMode int

// Durability modes, in increasing order of safety and latency.
const (
	// SyncOff never fsyncs: appends survive process death but not power
	// failure.
	SyncOff SyncMode = iota
	// SyncBatch fsyncs the active segment on a background interval.
	SyncBatch
	// SyncAlways fsyncs before Append returns, sharing one fsync among
	// concurrent appenders (group commit).
	SyncAlways
)

// String renders the mode in its flag syntax.
func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	default:
		return "off"
	}
}

// ParseSyncMode parses the -wal-sync flag syntax.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "":
		return SyncOff, nil
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncOff, fmt.Errorf("journal: unknown sync mode %q (want off, batch or always)", s)
}

// Options configure a journal.
type Options struct {
	// Mode selects the durability mode (default SyncOff).
	Mode SyncMode
	// BatchInterval is the background fsync period of SyncBatch
	// (default 25ms).
	BatchInterval time.Duration
	// SegmentBytes bounds one log segment before rotation (default 8 MiB).
	SegmentBytes int64
}

// ErrClosed is returned by operations on a closed journal.  Owners that keep
// mutating state while they shut down drop such appends: a shutdown is not a
// state change worth recording.
var ErrClosed = errors.New("journal: closed")

const (
	defaultBatchInterval = 25 * time.Millisecond
	// defaultCheckpointInterval is the StartCheckpoints period for a zero
	// interval.
	defaultCheckpointInterval = time.Minute
	defaultSegmentBytes       = 8 << 20
	// maxRecordBytes bounds a single record; a length prefix above it marks
	// the frame (and the rest of the segment) as corrupt.
	maxRecordBytes = 64 << 20
	frameHeader    = 8 // uint32 length + uint32 crc
	// replayBufferBytes sizes replay's read buffer: one read(2) fetches
	// thousands of records instead of two reads per record.
	replayBufferBytes = 1 << 20
)

// Journal is a segmented write-ahead log rooted at one directory.  All
// methods are safe for concurrent use.
type Journal struct {
	dir          string
	mode         SyncMode
	segmentBytes int64

	// replayFiles is the ordered list of files Replay reads: the latest
	// snapshot (if any) followed by the segments at or after its cut.
	// Fixed at Open; appends go to a fresh segment.
	replayFiles []string

	mu   sync.Mutex
	cond *sync.Cond // signalled when a sync round completes
	f    *os.File   // active segment
	seq  uint64     // active segment number
	size int64      // bytes written to the active segment
	// liveBytes approximates the bytes a snapshot would reclaim: every
	// un-truncated segment, including the replay tail a restart inherited.
	// The size trigger of StartCheckpoints polls it.
	liveBytes int64
	// writeSeq counts appended records; syncSeq is the highest writeSeq
	// known durable.  A SyncAlways appender waits until syncSeq reaches its
	// own record, electing itself sync leader if no round is in flight.
	writeSeq uint64
	syncSeq  uint64
	syncing  bool
	closed   bool

	// stop ends the background loops (batch syncer, checkpoints); Close
	// waits for them on loops before it closes the log.
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
}

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// parseSeq extracts the sequence number of a journal file name, reporting
// whether the name matches the given prefix/suffix shape.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	digits := name[len(prefix) : len(name)-len(suffix)]
	if _, err := fmt.Sscanf(digits, "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open creates (or re-opens) the journal rooted at dir.  Existing segments
// and the latest snapshot become the replay set; new appends go to a fresh
// segment, so replay and append never touch the same file.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []uint64
	var snapSeq uint64
	haveSnap := false
	var maxSeq uint64
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			if !haveSnap || seq > snapSeq {
				snapSeq = seq
				haveSnap = true
			}
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		// Leftover temp files from an interrupted snapshot are garbage.
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })

	j := &Journal{
		dir:          dir,
		mode:         opts.Mode,
		segmentBytes: opts.SegmentBytes,
		stop:         make(chan struct{}),
	}
	if j.segmentBytes <= 0 {
		j.segmentBytes = defaultSegmentBytes
	}
	j.cond = sync.NewCond(&j.mu)
	if haveSnap {
		j.replayFiles = append(j.replayFiles, filepath.Join(dir, snapshotName(snapSeq)))
	}
	for _, seq := range segs {
		// Segments below the snapshot cut are stale: their records are
		// folded into the snapshot (they survive only when a crash hit the
		// window between snapshot rename and truncation).
		if haveSnap && seq < snapSeq {
			_ = os.Remove(filepath.Join(dir, segmentName(seq)))
			continue
		}
		path := filepath.Join(dir, segmentName(seq))
		j.replayFiles = append(j.replayFiles, path)
		// The inherited tail counts as live: a restart into a long
		// un-snapshotted log should compact promptly under a size trigger.
		if info, err := os.Stat(path); err == nil {
			j.liveBytes += info.Size()
		}
	}
	j.seq = maxSeq + 1
	f, err := os.OpenFile(filepath.Join(dir, segmentName(j.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	if j.mode == SyncBatch {
		interval := opts.BatchInterval
		if interval <= 0 {
			interval = defaultBatchInterval
		}
		j.loops.Add(1)
		go j.batchSyncer(interval)
	}
	return j, nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// frameCap is the starting capacity of a frame a record appends itself
// into: room for a Table 1 job's submit image without growing.
const frameCap = 512

// encode frames one record: kind byte and JSON body behind a length/CRC
// header.  A record with an AppendJSON method appends its body in place
// after the header; any other goes through encoding/json.
func encode(kind Kind, v any) ([]byte, error) {
	header := [frameHeader + 1]byte{frameHeader: byte(kind)}
	var b []byte
	var err error
	if a, ok := v.(core.JSONAppender); ok {
		b, err = a.AppendJSON(append(make([]byte, 0, frameCap), header[:]...))
	} else {
		var body []byte
		if body, err = json.Marshal(v); err == nil {
			b = append(append(make([]byte, 0, len(header)+len(body)), header[:]...), body...)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("journal: encode %v record: %w", kind, err)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-frameHeader))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[frameHeader:]))
	return b, nil
}

// Append writes one record to the journal.  Under SyncAlways it returns
// only once the record is fsynced; concurrent appenders share one fsync.
func (j *Journal) Append(kind Kind, v any) error {
	frame, err := encode(kind, v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if j.size+int64(len(frame)) > j.segmentBytes && j.size > 0 {
		if err := j.rotateLocked(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.liveBytes += int64(len(frame))
	j.writeSeq++
	mySeq := j.writeSeq
	metAppends.Inc()
	metBytes.Add(float64(len(frame)))
	if j.mode != SyncAlways {
		j.mu.Unlock()
		return nil
	}
	// Group commit: wait until a sync round covers this record, electing
	// ourselves leader when no round is in flight.  The leader syncs once
	// for every record written before it started, so a burst of concurrent
	// appends costs one fsync, not one each.
	for j.syncSeq < mySeq {
		if j.closed {
			j.mu.Unlock()
			return ErrClosed
		}
		if !j.syncing {
			j.syncing = true
			cover := j.writeSeq
			f := j.f
			j.mu.Unlock()
			serr := f.Sync()
			metFsyncs.Inc()
			j.mu.Lock()
			j.syncing = false
			if serr == nil && cover > j.syncSeq {
				j.syncSeq = cover
			}
			j.cond.Broadcast()
			if serr != nil {
				j.mu.Unlock()
				return fmt.Errorf("journal: fsync: %w", serr)
			}
		} else {
			j.cond.Wait()
		}
	}
	j.mu.Unlock()
	return nil
}

// rotateLocked closes the active segment and opens the next one.  Callers
// must hold j.mu.  The outgoing segment is fsynced (except under SyncOff)
// so the global syncSeq watermark stays truthful across the file switch.
func (j *Journal) rotateLocked() error {
	for j.syncing {
		j.cond.Wait()
	}
	if j.mode != SyncOff {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: rotate: %w", err)
		}
		metFsyncs.Inc()
		j.syncSeq = j.writeSeq
		j.cond.Broadcast()
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.seq++
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f = f
	j.size = 0
	return nil
}

// batchSyncer is the SyncBatch background loop: it fsyncs the active
// segment whenever unsynced records exist.
func (j *Journal) batchSyncer(interval time.Duration) {
	defer j.loops.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-ticker.C:
		}
		j.mu.Lock()
		if j.syncing || j.writeSeq == j.syncSeq {
			j.mu.Unlock()
			continue
		}
		j.syncing = true
		cover := j.writeSeq
		f := j.f
		j.mu.Unlock()
		err := f.Sync()
		metFsyncs.Inc()
		j.mu.Lock()
		j.syncing = false
		if err == nil && cover > j.syncSeq {
			j.syncSeq = cover
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// LiveBytes approximates the un-truncated journal bytes — what a
// snapshot would reclaim.
func (j *Journal) LiveBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveBytes
}

// StartCheckpoints runs the owner's checkpoint (normally a Snapshot of its
// whole state) in the background: every interval — zero selects one minute,
// a negative value disables the period — and, when maxBytes > 0, as soon as
// LiveBytes reaches maxBytes, polled once a second.  Owners start it after
// replay: a checkpoint taken earlier would truncate records replay still
// needs.  Close stops it, letting a running checkpoint finish first.
func (j *Journal) StartCheckpoints(interval time.Duration, maxBytes int64, checkpoint func()) {
	if interval == 0 {
		interval = defaultCheckpointInterval
	}
	if interval < 0 && maxBytes <= 0 {
		return
	}
	tick := interval
	if maxBytes > 0 && (interval < 0 || interval > time.Second) {
		tick = time.Second
	}
	j.loops.Add(1)
	go func() {
		defer j.loops.Done()
		last := time.Now()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-j.stop:
				return
			case <-t.C:
			}
			due := interval > 0 && time.Since(last) >= interval
			if !due && (maxBytes <= 0 || j.LiveBytes() < maxBytes) {
				continue
			}
			checkpoint()
			last = time.Now()
		}
	}()
}

// Sync forces the active segment to stable storage, regardless of mode.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	for j.syncing {
		j.cond.Wait()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	metFsyncs.Inc()
	j.syncSeq = j.writeSeq
	j.cond.Broadcast()
	return nil
}

// Close stops the background loops, then flushes and closes the journal.
// Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.stopOnce.Do(func() { close(j.stop) })
	j.loops.Wait()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	for j.syncing {
		j.cond.Wait()
	}
	var err error
	if j.mode != SyncOff {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.cond.Broadcast()
	return err
}

// Replay streams every durable record — the latest snapshot followed by the
// segments written after its cut — to fn in append order.  A torn tail (the
// record being written when the process died) ends that file's replay
// cleanly; a decoding error from fn aborts the whole replay.
func (j *Journal) Replay(fn func(kind Kind, data []byte) error) error {
	for _, path := range j.replayFiles {
		if err := replayFile(path, fn); err != nil {
			return err
		}
	}
	return nil
}

// replayFile frames one file's records out to fn, stopping cleanly at a
// torn or corrupt tail.
func replayFile(path string, fn func(kind Kind, data []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal: replay %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, replayBufferBytes)
	var header [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// Clean EOF, or a header torn by the crash: replay ends here.
			return nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordBytes {
			return nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil // torn body
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil // corrupt record: everything after it is suspect
		}
		if err := fn(Kind(payload[0]), payload[1:]); err != nil {
			return err
		}
	}
}

// Snapshot compacts the journal: it rotates to a fresh segment, writes the
// owner-provided full state as a snapshot file using the same record
// framing, then truncates every segment and snapshot older than the cut.
// Records appended concurrently land in segments at or after the cut, so a
// replay of snapshot+tail is idempotent-by-construction for owners whose
// apply functions tolerate duplicates (last-wins).
func (j *Journal) Snapshot(write func(app func(kind Kind, v any) error) error) error {
	start := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if err := j.rotateLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	cut := j.seq
	j.mu.Unlock()

	tmpPath := filepath.Join(j.dir, snapshotName(cut)+".tmp")
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	app := func(kind Kind, v any) error {
		frame, err := encode(kind, v)
		if err != nil {
			return err
		}
		_, err = f.Write(frame)
		return err
	}
	err = write(app)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(j.dir, snapshotName(cut))); err != nil {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// Make the rename durable before deleting the segments it supersedes.
	if d, derr := os.Open(j.dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	// Truncate: everything before the cut is folded into the snapshot.
	var live int64
	entries, err := os.ReadDir(j.dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				if seq < cut {
					_ = os.Remove(filepath.Join(j.dir, name))
				} else if info, ierr := e.Info(); ierr == nil {
					live += info.Size()
				}
			}
			if seq, ok := parseSeq(name, "snap-", ".snap"); ok && seq < cut {
				_ = os.Remove(filepath.Join(j.dir, name))
			}
		}
		// Re-base the live-byte estimate on what actually survived the
		// truncation; concurrent appends racing the directory scan leave a
		// small over-count, which only makes the next size trigger early.
		j.mu.Lock()
		j.liveBytes = live
		j.mu.Unlock()
	}
	metSnapshotSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Decode unmarshals a replayed record body into v.
func Decode(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("journal: decode record: %w", err)
	}
	return nil
}
