package container

import (
	"container/list"
	"encoding/json"
	"sync"

	"mathcloud/internal/core"
)

// Default bounds of the per-container computation cache (Options
// MemoMaxEntries / MemoMaxBytes, 0 = these defaults).
const (
	defaultMemoEntries = 4096
	defaultMemoBytes   = 256 << 20
)

// memoEntry is one cached computation result: the outputs of a DONE job of
// a deterministic service, keyed by the canonical hash of its inputs.
type memoEntry struct {
	key     string
	service string
	// jobID is the backing job whose file resources the cached outputs
	// reference; deleting that job purges the entry together with the
	// files, so a hit never hands out dangling file URIs.
	jobID   string
	outputs core.Values
	bytes   int64
	elem    *list.Element
}

// flight is one in-progress execution of a deterministic computation.
// Identical submissions arriving while it runs coalesce onto it as
// followers: they are completed from the leader's result instead of
// executing the adapter again.
type flight struct {
	followers []*jobRecord
	// noStore marks a flight whose service was reconfigured mid-run: the
	// result still completes the followers (it is what they asked for when
	// they asked) but must not populate the cache.
	noStore bool
}

// memoTable is the per-service-container computation cache: an LRU bounded
// by entry count and by approximate output bytes, plus the singleflight
// registry of in-progress executions.  All methods are safe for concurrent
// use.
type memoTable struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	bytes   int64
	entries map[string]*memoEntry
	lru     *list.List // front = most recently used
	byJob   map[string]string
	flights map[string]*flight
}

func newMemoTable(maxEntries int, maxBytes int64) *memoTable {
	return &memoTable{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*memoEntry),
		lru:        list.New(),
		byJob:      make(map[string]string),
		flights:    make(map[string]*flight),
	}
}

// lookup returns the cached outputs for key, refreshing its LRU position.
// The returned Values are shared and treated as immutable; callers clone
// before attaching them to a job.
func (m *memoTable) lookup(key string) (core.Values, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(e.elem)
	return e.outputs, true
}

// joinOrLead coalesces rec onto an in-progress identical execution, or
// registers a new flight with rec as its leader, reporting whether rec leads
// (and must actually execute).  A key whose flight settled since the
// caller's lookup missed reports its cached outputs instead (hit), so a
// submission racing settlement never becomes a second leader.
func (m *memoTable) joinOrLead(key string, rec *jobRecord) (outputs core.Values, hit, leader bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.lru.MoveToFront(e.elem)
		return e.outputs, true, false
	}
	if f, ok := m.flights[key]; ok {
		f.followers = append(f.followers, rec)
		return nil, false, false
	}
	m.flights[key] = &flight{}
	return nil, false, true
}

// settle removes the flight for key and, unless size is negative or the
// flight was poisoned, caches the leader's outputs of that size (sizeOf) —
// in one critical section, so a probe of the key always finds the flight or
// the entry, never neither.  It reports the flight's followers and whether
// the outputs were cached; a key with no flight reports neither, which is
// what makes settlement idempotent.
func (m *memoTable) settle(key, service, jobID string, outputs core.Values, size int64) (followers []*jobRecord, stored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.flights[key]
	if !ok {
		return nil, false
	}
	delete(m.flights, key)
	if size >= 0 && !f.noStore {
		stored = m.insertLocked(key, service, jobID, outputs, size)
	}
	return f.followers, stored
}

// store caches the outputs of a completed execution outside any flight
// (journal replay).
func (m *memoTable) store(key, service, jobID string, outputs core.Values) {
	size := m.sizeOf(outputs)
	if size < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insertLocked(key, service, jobID, outputs, size)
}

// sizeOf is the byte size an entry holding outputs charges against the
// bound, or -1 when the outputs cannot be cached: they do not marshal, or
// exceed the whole bound.
func (m *memoTable) sizeOf(outputs core.Values) int64 {
	data, err := json.Marshal(outputs)
	if err != nil || int64(len(data)) > m.maxBytes {
		return -1
	}
	return int64(len(data))
}

// insertLocked caches one entry and applies the LRU bounds, reporting
// whether the key was new.  Callers must hold m.mu.
func (m *memoTable) insertLocked(key, service, jobID string, outputs core.Values, size int64) bool {
	if _, exists := m.entries[key]; exists {
		return false
	}
	e := &memoEntry{key: key, service: service, jobID: jobID, outputs: outputs, bytes: size}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.byJob[jobID] = key
	m.bytes += size
	for len(m.entries) > m.maxEntries || m.bytes > m.maxBytes {
		oldest := m.lru.Back()
		if oldest == nil {
			break
		}
		m.removeLocked(oldest.Value.(*memoEntry))
		metMemoEvictions.Inc()
	}
	metMemoBytes.Set(float64(m.bytes))
	return true
}

// removeLocked unlinks one entry.  Callers must hold m.mu.
func (m *memoTable) removeLocked(e *memoEntry) {
	m.lru.Remove(e.elem)
	delete(m.entries, e.key)
	delete(m.byJob, e.jobID)
	m.bytes -= e.bytes
}

// dropJob purges the entry backed by the given job: its file resources are
// being destroyed, so the cached outputs would dangle.
func (m *memoTable) dropJob(jobID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key, ok := m.byJob[jobID]; ok {
		m.removeLocked(m.entries[key])
		metMemoBytes.Set(float64(m.bytes))
	}
}

// dropService invalidates every entry of one service and poisons its
// in-progress flights, for service reconfiguration (undeploy/redeploy): a
// new adapter configuration may compute different results for the same
// inputs even at the same declared version.
func (m *memoTable) dropService(service string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.service == service {
			m.removeLocked(e)
		}
	}
	// Flights are keyed by hash, not service; poisoning all of them is
	// coarse but reconfiguration is rare and a lost store is only a miss.
	for _, f := range m.flights {
		f.noStore = true
	}
	metMemoBytes.Set(float64(m.bytes))
}

// reset drops every entry and poisons every flight.  Used when the
// container's base URL changes: cached outputs embed absolute file URIs.
func (m *memoTable) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[string]*memoEntry)
	m.byJob = make(map[string]string)
	m.lru.Init()
	m.bytes = 0
	for _, f := range m.flights {
		f.noStore = true
	}
	metMemoBytes.Set(0)
}

// forEach visits every cached entry in LRU order (most recent first), for
// the snapshotter.  The callback must not call back into the table.
func (m *memoTable) forEach(fn func(key, service, jobID string, outputs core.Values)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		fn(e.key, e.service, e.jobID, e.outputs)
	}
}

// stats reports the cache occupancy, for tests and benches.
func (m *memoTable) stats() (entries int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bytes
}
