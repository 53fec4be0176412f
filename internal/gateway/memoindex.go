package gateway

import (
	"sync"

	"mathcloud/internal/core"
)

// memoIndex is the gateway's authoritative view of which replica holds a
// cached result for a given canonical input digest (DESIGN.md §5j).  The
// digest home already sends every gateway's submissions of one key to the
// same replica; the index, fed by each replica's memo delta feed
// (GET /memo?since=N), additionally covers results held elsewhere — computed
// before a topology change moved the home, by a spill, or by a direct
// replica submission.
//
// The index stores at most one replica per key.  Deterministic results are
// content-addressed, so when two replicas both hold a key either copy is as
// good as the other; last writer wins.
type memoIndex struct {
	mu    sync.RWMutex
	byKey map[string]string // canonical digest -> replica name
	// keysByReplica mirrors byKey for O(keys of replica) Reset/drop handling.
	keysByReplica map[string]map[string]struct{}
}

func newMemoIndex() *memoIndex {
	return &memoIndex{
		byKey:         make(map[string]string),
		keysByReplica: make(map[string]map[string]struct{}),
	}
}

// lookup returns the replica believed to hold a memoised result for key.
func (x *memoIndex) lookup(key string) (replica string, ok bool) {
	x.mu.RLock()
	replica, ok = x.byKey[key]
	x.mu.RUnlock()
	return replica, ok
}

// apply folds one page of a replica's memo delta feed into the index.  A
// Reset page replaces everything previously known about the replica; an
// incremental page adds Entries and removes Dropped keys.
func (x *memoIndex) apply(replica string, page core.MemoIndexPage) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if page.Reset {
		x.dropReplicaLocked(replica)
	}
	keys := x.keysByReplica[replica]
	if keys == nil && len(page.Entries) > 0 {
		keys = make(map[string]struct{}, len(page.Entries))
		x.keysByReplica[replica] = keys
	}
	for _, e := range page.Entries {
		if prev, ok := x.byKey[e.Key]; ok && prev != replica {
			if prevKeys := x.keysByReplica[prev]; prevKeys != nil {
				delete(prevKeys, e.Key)
			}
		}
		x.byKey[e.Key] = replica
		keys[e.Key] = struct{}{}
	}
	for _, key := range page.Dropped {
		// Only forget the key if this replica is still its owner of
		// record; another replica may have claimed it since.
		if owner, ok := x.byKey[key]; ok && owner == replica {
			delete(x.byKey, key)
		}
		if keys != nil {
			delete(keys, key)
		}
	}
}

// dropReplica forgets every key attributed to the replica (used when a
// replica is removed from the federation or its feed resets).
func (x *memoIndex) dropReplica(replica string) {
	x.mu.Lock()
	x.dropReplicaLocked(replica)
	x.mu.Unlock()
}

func (x *memoIndex) dropReplicaLocked(replica string) {
	for key := range x.keysByReplica[replica] {
		if owner, ok := x.byKey[key]; ok && owner == replica {
			delete(x.byKey, key)
		}
	}
	delete(x.keysByReplica, replica)
}

// size reports the number of indexed keys (for tests and status).
func (x *memoIndex) size() int {
	x.mu.RLock()
	n := len(x.byKey)
	x.mu.RUnlock()
	return n
}
