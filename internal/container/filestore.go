package container

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"mathcloud/internal/core"
	"mathcloud/internal/journal"
	"mathcloud/internal/rest"
)

// FileStore manages the file resources of a container: the parts of client
// requests and job results that are passed as remote files rather than
// inline JSON values.  Identifiers stay opaque random hex strings, but the
// storage underneath is content-addressed: every payload is hashed while it
// streams in (one pass, no write-then-hash), and identical payloads share a
// single blob on disk with refcounted deletion.  The diffractometry sweep —
// thousands of jobs exchanging near-identical curve files — and the memo
// plane's repeated jobs therefore stop multiplying identical bytes on disk,
// and the content digest of any stored file is available for free, which is
// what lets the computation cache key file inputs by content rather than by
// file ID.
type FileStore struct {
	dir string
	// idPrefix is the replica affinity prefix stamped on every minted file
	// ID ("" outside a federation).  Set once, before the store is shared.
	idPrefix string
	// logRecord, when set, records every ID birth and death in the
	// container's write-ahead journal so the index survives restarts.  Blobs
	// are their own durability (content-addressed files on disk); the
	// journal only carries the ID→digest mapping that points at them.
	logRecord func(kind journal.Kind, v any)

	mu    sync.Mutex
	sizes map[string]int64
	// owners maps a file ID to the job that produced it, so that
	// deleting a job destroys its subordinate file resources, as the
	// unified API requires.
	owners map[string]string
	// digests maps a file ID to the sha256 hex of its content; refs counts
	// the IDs sharing each blob.  A blob is unlinked when its last ID goes.
	digests map[string]string
	refs    map[string]int
	// logicalBytes and physicalBytes track the dedup ratio: bytes as the
	// API sees them vs bytes actually on disk.
	logicalBytes  int64
	physicalBytes int64
}

// fileIDPattern accepts the bare 32-hex form and the federation form with a
// replica affinity prefix ("r03-<32 hex>", see core.TagID).
var fileIDPattern = regexp.MustCompile(`^(?:[a-z0-9]{1,16}-)?[0-9a-f]{32}$`)

// SetIDPrefix sets the replica affinity prefix of newly minted file IDs.
// Call it right after construction, before the store serves requests.
func (fs *FileStore) SetIDPrefix(replica string) { fs.idPrefix = replica }

// logPut journals the birth of a file ID.  Called outside fs.mu.
func (fs *FileStore) logPut(id, digest string, size int64, owner string) {
	if fs.logRecord != nil {
		fs.logRecord(journal.KindFilePut, journal.FilePutRecord{ID: id, Digest: digest, Size: size, Owner: owner})
	}
}

// logDel journals the death of a file ID.  Called outside fs.mu.
func (fs *FileStore) logDel(id string) {
	if fs.logRecord != nil {
		fs.logRecord(journal.KindFileDel, journal.FileDelRecord{ID: id})
	}
}

// NewFileStore creates a file store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("container: file store: %w", err)
	}
	return &FileStore{
		dir:     dir,
		sizes:   make(map[string]int64),
		owners:  make(map[string]string),
		digests: make(map[string]string),
		refs:    make(map[string]int),
	}, nil
}

// forJob decorates a file-store error with the owning job, so a failure
// surfacing through a job record names the job it broke.
func forJob(jobID string) string {
	if jobID == "" {
		return ""
	}
	return " (job " + jobID + ")"
}

// Put stores the content of r as a new file resource owned by the given
// job ("" for client uploads) and returns its identifier.  The sha256 of
// the content is computed while streaming to the temporary file — a single
// pass over the bytes — and an identical payload already in the store is
// deduplicated to the existing blob.
func (fs *FileStore) Put(r io.Reader, jobID string) (string, error) {
	tmp, err := os.CreateTemp(fs.dir, "tmp-")
	if err != nil {
		return "", fmt.Errorf("container: file store: create%s: %w", forJob(jobID), err)
	}
	tmpPath := tmp.Name()
	h := sha256.New()
	n, err := rest.Copy(io.MultiWriter(tmp, h), r)
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		_ = os.Remove(tmpPath)
		return "", fmt.Errorf("container: file store: write%s: %w", forJob(jobID), err)
	}
	return fs.commit(tmpPath, hex.EncodeToString(h.Sum(nil)), n, jobID)
}

// PutBytes stores a byte slice as a new file resource.
func (fs *FileStore) PutBytes(data []byte, jobID string) (string, error) {
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	fs.mu.Lock()
	if fs.refs[digest] > 0 {
		id := fs.adoptLocked(digest, int64(len(data)), jobID)
		fs.mu.Unlock()
		fs.logPut(id, digest, int64(len(data)), jobID)
		return id, nil
	}
	fs.mu.Unlock()
	tmp, err := os.CreateTemp(fs.dir, "tmp-")
	if err != nil {
		return "", fmt.Errorf("container: file store: create%s: %w", forJob(jobID), err)
	}
	tmpPath := tmp.Name()
	_, err = tmp.Write(data)
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		_ = os.Remove(tmpPath)
		return "", fmt.Errorf("container: file store: write%s: %w", forJob(jobID), err)
	}
	return fs.commit(tmpPath, digest, int64(len(data)), jobID)
}

// PutFile ingests an existing file (typically an adapter output in a job
// work directory) as a new file resource.  The content is hashed in one
// read pass; a new blob is hardlinked from the source when the filesystem
// allows it, falling back to a pooled-buffer copy, so ingestion never
// buffers the file on the heap.
func (fs *FileStore) PutFile(path, jobID string) (string, error) {
	in, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("container: file store: ingest%s: %w", forJob(jobID), err)
	}
	h := sha256.New()
	n, err := rest.Copy(h, in)
	_ = in.Close()
	if err != nil {
		return "", fmt.Errorf("container: file store: ingest%s: %w", forJob(jobID), err)
	}
	digest := hex.EncodeToString(h.Sum(nil))

	fs.mu.Lock()
	if fs.refs[digest] > 0 {
		id := fs.adoptLocked(digest, n, jobID)
		fs.mu.Unlock()
		fs.logPut(id, digest, n, jobID)
		return id, nil
	}
	fs.mu.Unlock()

	// New content: materialise the blob outside the lock, preferring a
	// hardlink from the source over copying the bytes.  A random name is
	// as unique as os.CreateTemp's, without creating a file to link over.
	tmpPath := filepath.Join(fs.dir, "tmp-"+core.NewID())
	if err := os.Link(path, tmpPath); err != nil {
		in, err := os.Open(path)
		if err != nil {
			return "", fmt.Errorf("container: file store: ingest%s: %w", forJob(jobID), err)
		}
		out, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			_ = in.Close()
			return "", fmt.Errorf("container: file store: create%s: %w", forJob(jobID), err)
		}
		_, err = rest.Copy(out, in)
		_ = in.Close()
		if closeErr := out.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			_ = os.Remove(tmpPath)
			return "", fmt.Errorf("container: file store: ingest%s: %w", forJob(jobID), err)
		}
	}
	return fs.commit(tmpPath, digest, n, jobID)
}

// commit registers a fully written temporary file under its content digest:
// either the digest is new and the temp file becomes the blob, or another
// writer got there first and the temp file is discarded in favour of the
// existing blob.  Either way a fresh file ID pointing at the blob is
// returned.
func (fs *FileStore) commit(tmpPath, digest string, size int64, jobID string) (string, error) {
	fs.mu.Lock()
	if fs.refs[digest] > 0 {
		id := fs.adoptLocked(digest, size, jobID)
		fs.mu.Unlock()
		_ = os.Remove(tmpPath)
		fs.logPut(id, digest, size, jobID)
		return id, nil
	}
	// Rename under the lock: it is a metadata operation (fast) and keeps
	// the refs map authoritative about which blobs exist on disk.
	if err := os.Rename(tmpPath, fs.blobPath(digest)); err != nil {
		fs.mu.Unlock()
		_ = os.Remove(tmpPath)
		return "", fmt.Errorf("container: file store: store blob%s: %w", forJob(jobID), err)
	}
	fs.refs[digest] = 1
	fs.physicalBytes += size
	id := fs.registerLocked(digest, size, jobID)
	fs.mu.Unlock()
	fs.logPut(id, digest, size, jobID)
	return id, nil
}

// adoptLocked attaches a fresh ID to an existing blob (dedup hit).
// Callers must hold fs.mu.
func (fs *FileStore) adoptLocked(digest string, size int64, jobID string) string {
	fs.refs[digest]++
	metDedupFiles.Inc()
	metDedupBytes.Add(float64(size))
	return fs.registerLocked(digest, size, jobID)
}

// registerLocked mints an ID for a blob already accounted in refs.
// Callers must hold fs.mu.
func (fs *FileStore) registerLocked(digest string, size int64, jobID string) string {
	id := core.TagID(fs.idPrefix, core.NewID())
	fs.digests[id] = digest
	fs.sizes[id] = size
	fs.logicalBytes += size
	if jobID != "" {
		fs.owners[id] = jobID
	}
	return id
}

// blobFor resolves an ID to its blob path.
func (fs *FileStore) blobFor(id string) (string, int64, bool) {
	if !fileIDPattern.MatchString(id) {
		return "", 0, false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	digest, ok := fs.digests[id]
	if !ok {
		return "", 0, false
	}
	return fs.blobPath(digest), fs.sizes[id], true
}

// Open returns a reader over the file content.  The caller must close it.
func (fs *FileStore) Open(id string) (io.ReadSeekCloser, int64, error) {
	path, size, ok := fs.blobFor(id)
	if !ok {
		return nil, 0, core.ErrNotFound("file", id)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, core.ErrNotFound("file", id)
	}
	return f, size, nil
}

// ReadAll returns the whole file content.  It is retained for small
// payloads and tests; hot paths stage files with StageTo instead, which
// never materialises the content on the heap.
func (fs *FileStore) ReadAll(id string) ([]byte, error) {
	f, _, err := fs.Open(id)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Digest returns the sha256 hex of the file content.  It is free — the
// hash was computed while the file streamed in — which is what makes
// content-keyed computation caching affordable on the submit path.
func (fs *FileStore) Digest(id string) (string, error) {
	if !fileIDPattern.MatchString(id) {
		return "", core.ErrNotFound("file", id)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	digest, ok := fs.digests[id]
	if !ok {
		return "", core.ErrNotFound("file", id)
	}
	return digest, nil
}

// StageTo materialises the file content at dst without reading it onto the
// heap: it hardlinks the stored blob when the filesystem allows, and falls
// back to a pooled-buffer streaming copy otherwise.  This is the local
// short-cut of the file staging plane.
func (fs *FileStore) StageTo(id, dst string) error {
	src, _, ok := fs.blobFor(id)
	if !ok {
		return core.ErrNotFound("file", id)
	}
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return core.ErrNotFound("file", id)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("container: file store: stage: %w", err)
	}
	_, err = rest.Copy(out, in)
	if closeErr := out.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		_ = os.Remove(dst)
		return fmt.Errorf("container: file store: stage: %w", err)
	}
	return nil
}

// Size returns the stored size of the file.
func (fs *FileStore) Size(id string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, ok := fs.sizes[id]
	if !ok {
		return 0, core.ErrNotFound("file", id)
	}
	return size, nil
}

// Delete removes a file resource.  The backing blob is unlinked only when
// its last referencing ID is deleted.
func (fs *FileStore) Delete(id string) error {
	fs.mu.Lock()
	digest, ok := fs.digests[id]
	size := fs.sizes[id]
	delete(fs.sizes, id)
	delete(fs.owners, id)
	delete(fs.digests, id)
	var unlinkErr error
	if ok {
		fs.logicalBytes -= size
		// Guard the decrement: a refcount can only reach zero together with
		// the last ID, but replayed journals have carried inconsistent pairs
		// before, and a negative count would unlink a blob other IDs still
		// reference on the next delete.
		if fs.refs[digest] > 0 {
			fs.refs[digest]--
		}
		if fs.refs[digest] <= 0 {
			delete(fs.refs, digest)
			fs.physicalBytes -= size
			// Unlink under the lock, as commit renames under it: a Put of
			// the same content must not rename its blob into place between
			// the last reference going and the unlink.
			if err := os.Remove(fs.blobPath(digest)); err != nil && !os.IsNotExist(err) {
				unlinkErr = fmt.Errorf("container: file store: delete: %w", err)
			}
		}
	}
	fs.mu.Unlock()
	if !ok {
		return core.ErrNotFound("file", id)
	}
	fs.logDel(id)
	return unlinkErr
}

// DeleteOwnedBy removes every file resource owned by the given job and
// returns how many were deleted.
func (fs *FileStore) DeleteOwnedBy(jobID string) int {
	return fs.deleteOwned(func(owner string) bool { return owner == jobID })
}

// deleteOwnedByAny removes every file resource owned by one of the given
// jobs in one pass over the file index.
func (fs *FileStore) deleteOwnedByAny(jobIDs map[string]bool) int {
	if len(jobIDs) == 0 {
		return 0
	}
	return fs.deleteOwned(func(owner string) bool { return jobIDs[owner] })
}

func (fs *FileStore) deleteOwned(match func(owner string) bool) int {
	fs.mu.Lock()
	var ids []string
	for id, owner := range fs.owners {
		if match(owner) {
			ids = append(ids, id)
		}
	}
	fs.mu.Unlock()
	for _, id := range ids {
		_ = fs.Delete(id)
	}
	return len(ids)
}

// Count returns the number of stored files (IDs, not blobs).
func (fs *FileStore) Count() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.sizes)
}

// Stats reports the dedup state of the store: how many file IDs exist, how
// many distinct blobs back them, and the logical vs physical byte totals.
func (fs *FileStore) Stats() (files, blobs int, logicalBytes, physicalBytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.sizes), len(fs.refs), fs.logicalBytes, fs.physicalBytes
}

func (fs *FileStore) blobPath(digest string) string {
	return filepath.Join(fs.dir, "sha256-"+filepath.Base(digest))
}

// restoreFile re-registers a journaled file ID during recovery, without
// re-journaling it.  The blob must exist on disk (content-addressed blobs
// are their own durability; an ID whose blob is gone is dropped).  Restoring
// an ID that is already present is a no-op, so replaying the same journal
// twice — or a snapshot overlapping the log tail — cannot inflate refcounts.
func (fs *FileStore) restoreFile(id, digest string, size int64, owner string) error {
	if _, err := os.Stat(fs.blobPath(digest)); err != nil {
		return fmt.Errorf("container: file store: restore %s: blob sha256-%s missing", id, digest)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.digests[id]; exists {
		return nil
	}
	if fs.refs[digest] == 0 {
		fs.physicalBytes += size
	}
	fs.refs[digest]++
	fs.digests[id] = digest
	fs.sizes[id] = size
	fs.logicalBytes += size
	if owner != "" {
		fs.owners[id] = owner
	}
	return nil
}

// IngestRemote stores the content of r under an EXISTING federation file
// ID fetched from a peer replica, verifying it against the digest the
// peer advertised.  The bytes are hashed while they stream to a
// temporary file and the blob is committed only when the computed digest
// matches: a corrupted or truncated transfer is discarded without
// touching the content-addressed store, so a retry can succeed and no
// local ID ever points at wrong bytes.  Ingesting an ID that is already
// present is a no-op, making concurrent pulls and replays idempotent.  The
// replica of record owns the file's lifecycle; the local copy is a cache
// entry owned by the job or sweep that pulled it (owner) and released with
// it by DeleteOwnedBy, like the files that job produced.
func (fs *FileStore) IngestRemote(id, digest string, r io.Reader, owner string) error {
	if !fileIDPattern.MatchString(id) {
		return fmt.Errorf("container: file store: ingest remote: malformed id %q", id)
	}
	if digest == "" {
		return fmt.Errorf("container: file store: ingest remote %s: peer sent no digest", id)
	}
	fs.mu.Lock()
	_, exists := fs.digests[id]
	fs.mu.Unlock()
	if exists {
		return nil
	}
	tmp, err := os.CreateTemp(fs.dir, "tmp-")
	if err != nil {
		return fmt.Errorf("container: file store: ingest remote %s: %w", id, err)
	}
	tmpPath := tmp.Name()
	h := sha256.New()
	n, err := rest.Copy(io.MultiWriter(tmp, h), r)
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("container: file store: ingest remote %s: %w", id, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("container: file store: ingest remote %s: digest mismatch: got sha256-%s, peer advertised sha256-%s", id, got, digest)
	}
	fs.mu.Lock()
	if _, exists := fs.digests[id]; exists {
		fs.mu.Unlock()
		_ = os.Remove(tmpPath)
		return nil
	}
	if fs.refs[digest] == 0 {
		if err := os.Rename(tmpPath, fs.blobPath(digest)); err != nil {
			fs.mu.Unlock()
			_ = os.Remove(tmpPath)
			return fmt.Errorf("container: file store: ingest remote %s: %w", id, err)
		}
		fs.physicalBytes += n
	} else {
		// The content already lives here under another ID (dedup hit).
		_ = os.Remove(tmpPath)
		metDedupFiles.Inc()
		metDedupBytes.Add(float64(n))
	}
	fs.refs[digest]++
	fs.digests[id] = digest
	fs.sizes[id] = n
	fs.logicalBytes += n
	if owner != "" {
		fs.owners[id] = owner
	}
	fs.mu.Unlock()
	fs.logPut(id, digest, n, owner)
	return nil
}

// forEachFile visits every live file ID.  Used by the snapshotter; the
// callback must not call back into the store.
func (fs *FileStore) forEachFile(fn func(id, digest string, size int64, owner string)) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for id, digest := range fs.digests {
		fn(id, digest, fs.sizes[id], fs.owners[id])
	}
}

// gcOrphans removes blobs no live ID references and stale temp files, and
// returns how many files it unlinked.  Run once after recovery: a crash
// between blob rename and journal append leaves an unreferenced blob, and a
// crash mid-upload leaves a tmp- file.
func (fs *FileStore) gcOrphans() int {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return 0
	}
	fs.mu.Lock()
	live := make(map[string]bool, len(fs.refs))
	for digest := range fs.refs {
		live["sha256-"+digest] = true
	}
	fs.mu.Unlock()
	removed := 0
	for _, e := range entries {
		name := e.Name()
		isOrphanBlob := len(name) > 7 && name[:7] == "sha256-" && !live[name]
		isTmp := len(name) > 4 && name[:4] == "tmp-"
		if !isOrphanBlob && !isTmp {
			continue
		}
		if err := os.Remove(filepath.Join(fs.dir, name)); err == nil {
			removed++
		}
	}
	return removed
}
