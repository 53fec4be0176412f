package gateway

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mathcloud/internal/core"
)

// fileRefMarker is how a file reference starts inside a JSON body.
var fileRefMarker = []byte(`"` + core.FileRefPrefix)

// Placement answers one question: which replica should serve this request?
//
// Reads about a service (describe, merged listings) follow rendezvous
// (highest-random-weight) hashing over (service, replica): every gateway
// instance computes the same preference order with no shared state, and the
// order degrades minimally when a replica leaves — only the services that
// ranked it first move.  Work placement (job and sweep submission) must
// instead SPREAD: rendezvous over the service alone would pin each service
// to one replica and cap its throughput at a single container.  A
// submission is placed by the first of these that decides (DESIGN.md §5j.3):
//
//   - a deterministic job whose inputs hold no file reference goes to its
//     digest home, the rendezvous winner over (digest of the canonical
//     submission, core.CanonicalHash; replica) among the candidates without
//     a full queue: identical submissions through any gateway meet in one
//     replica's singleflight and cache;
//   - a submission whose inputs reference files goes to the replica that
//     owns most of them (every file ID carries its owner's prefix), unless
//     that replica advertises a full queue: the job moves to its data, and
//     the consuming replica's cross-replica pull remains only the fallback
//     for ties, foreign owners and a saturated owner;
//   - the rest use power-of-two-choices over the queue depth each replica
//     advertises on GET /load: pick two candidates, send the job to the
//     shorter queue.  P2c tracks load skew exponentially better than blind
//     round-robin while touching only two load samples per decision;
//   - when every candidate advertises a full queue the gateway refuses
//     admission outright (503 + Retry-After) instead of burning a proxy hop
//     on a replica that would reject the job anyway.

// rendezvousScore ranks one (key, replica) pair, where the key is a service
// name or a memo digest.  FNV-1a over the joint key is cheap, stateless and
// stable across processes.
func rendezvousScore(key, replica string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(replica))
	return h.Sum64()
}

// candEntry caches one service's sorted candidate list.  The entry is valid
// while the gateway topology generation it was computed under still matches
// g.topoGen; any health flip or service-set change bumps the generation and
// lazily invalidates every entry.  This keeps the per-submit cost at one
// atomic load instead of a full replica scan with per-replica locking.
type candEntry struct {
	gen      uint64
	replicas []*replicaState
	// lease is the core.SpreadLeaseHeader value leasing replicas for one
	// load interval, shared by the header maps of every 307 that grants it;
	// nil when the gateway polls no load.
	lease []string
}

// serviceReplicas returns the healthy replicas currently advertising the
// service, sorted by descending rendezvous score (ties broken by name so the
// order is total).  Results are cached per service until the topology
// generation changes.
func (g *Gateway) serviceReplicas(service string) []*replicaState {
	return g.candidates(service).replicas
}

// candidates returns the service's candidate-cache entry, computing it
// when the topology generation moved.
func (g *Gateway) candidates(service string) *candEntry {
	gen := g.topoGen.Load()
	g.candMu.Lock()
	if e, ok := g.candCache[service]; ok && e.gen == gen {
		g.candMu.Unlock()
		return e
	}
	g.candMu.Unlock()

	var out []*replicaState
	for _, rs := range g.replicas {
		if !rs.isHealthy() {
			continue
		}
		if _, ok := rs.describe(service); !ok {
			continue
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := rendezvousScore(service, out[i].name), rendezvousScore(service, out[j].name)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})

	e := &candEntry{gen: gen, replicas: out, lease: g.spreadLease(out)}
	g.candMu.Lock()
	// Tag the entry with the generation observed BEFORE the scan: if the
	// topology changed mid-scan the entry is already stale and the next
	// caller recomputes.
	g.candCache[service] = e
	g.candMu.Unlock()
	return e
}

// spreadLease renders the lease of candidates for one load interval, nil
// when load polling is off (the lease stands in for placement that reads
// load reports) or a base may not stand in the header.
func (g *Gateway) spreadLease(candidates []*replicaState) []string {
	if g.loadEvery <= 0 || len(candidates) == 0 {
		return nil
	}
	l := core.SpreadLease{For: g.loadEvery, Replicas: make([]core.LeasedReplica, len(candidates))}
	for i, rs := range candidates {
		l.Replicas[i] = core.LeasedReplica{Name: rs.name, Base: rs.baseURL()}
	}
	v, err := core.FormatSpreadLease(l)
	if err != nil {
		return nil
	}
	return []string{v}
}

// serviceKnown reports whether any replica — healthy or not — has ever
// advertised the service, distinguishing "no such service" (404) from "no
// healthy replica right now" (502).
func (g *Gateway) serviceKnown(service string) bool {
	for _, rs := range g.replicas {
		if _, ok := rs.describe(service); ok {
			return true
		}
	}
	return false
}

// homeReplica returns the rendezvous-preferred healthy replica for reads
// about a service.
func (g *Gateway) homeReplica(service string) (*replicaState, bool) {
	c := g.serviceReplicas(service)
	if len(c) == 0 {
		return nil, false
	}
	return c[0], true
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed bijection used to derive two independent candidate indices from
// the monotonically increasing cursor without math/rand (deterministic under
// test, no seed state to share).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// spreadReplica picks the next target among candidates by
// power-of-two-choices: the round-robin cursor nominates the primary
// candidate and a splitmix64-derived second index challenges it, winning
// only with a strictly shorter advertised queue.  Under uniform (or not yet
// polled) load every challenge ties and the spread is exact round-robin,
// while a skewed federation drains toward the replicas with headroom.  With
// a single candidate the cursor decides alone.  Each kind of placement
// brings its own cursor, so one kind's traffic cannot phase-lock another's.
func spreadReplica(cursor *atomic.Uint64, candidates []*replicaState) *replicaState {
	n := cursor.Add(1)
	i := int((n - 1) % uint64(len(candidates)))
	if len(candidates) == 1 {
		return candidates[i]
	}
	k := int(splitmix64(n) % uint64(len(candidates)))
	if k == i {
		k = (k + 1) % len(candidates)
	}
	if candidates[k].queueDepth() < candidates[i].queueDepth() {
		return candidates[k]
	}
	return candidates[i]
}

// queueFull reports whether the replica advertises a full queue.  A replica
// with no load report (loadOK false) or an unbounded queue never counts as
// full — placement only steers away from, and admission control only
// refuses on, positive evidence that the replica cannot take the job.
func (rs *replicaState) queueFull() bool {
	report, ok := rs.loadReport()
	return ok && report.QueueCap > 0 && report.QueueDepth >= report.QueueCap
}

// saturated reports whether every candidate advertises a full queue.
func saturated(candidates []*replicaState) bool {
	for _, rs := range candidates {
		if !rs.queueFull() {
			return false
		}
	}
	return len(candidates) > 0
}

// placeSpread picks a submission target, refusing admission when the whole
// candidate set is saturated.
func (g *Gateway) placeSpread(candidates []*replicaState) (*replicaState, error) {
	if saturated(candidates) {
		return nil, refuseSaturated()
	}
	return spreadReplica(&g.rrCursor, candidates), nil
}

// refuseSaturated is admission control's answer when no candidate can take
// the job: 503 with a Retry-After hint.
func refuseSaturated() error {
	metGwAdmissionRejects.Inc()
	return core.ErrUnavailable(time.Second, "all replicas saturated: every candidate queue is full")
}

// fileOwner returns the replica prefix of the file a parameter value
// references, for both forms a reference takes: the bare federation ID
// ("file:r02-<hex>") and the absolute URI minted by a replica
// ("file:http://gw/files/r02-<hex>").
func fileOwner(v any) (string, bool) {
	ref, ok := core.FileRefID(v)
	if !ok {
		return "", false
	}
	if i := strings.LastIndex(ref, "/files/"); i >= 0 {
		ref = ref[i+len("/files/"):]
	}
	return core.SplitReplicaID(ref)
}

// localityReplica returns the candidate that owns the most of the file
// references among inputs, or nil when no candidate owns any, two candidates
// tie, or the owner advertises a full queue — the cases left to placeSpread.
// A submission without file references costs one pass over its inputs.
func localityReplica(candidates []*replicaState, inputs core.Values) *replicaState {
	var owned []int // per candidate; allocated on the first owned reference
	for _, v := range inputs {
		owner, ok := fileOwner(v)
		if !ok {
			continue
		}
		for i, c := range candidates {
			if c.name == owner {
				if owned == nil {
					owned = make([]int, len(candidates))
				}
				owned[i]++
				break
			}
		}
	}
	best, tie := -1, false
	for i, n := range owned {
		switch {
		case n == 0:
		case best < 0 || n > owned[best]:
			best, tie = i, false
		case n == owned[best]:
			tie = true
		}
	}
	if best < 0 || tie || candidates[best].queueFull() {
		return nil
	}
	return candidates[best]
}

// placeFresh places a submission without a digest home: on the replica
// that holds its input files when one does, by load-aware spread otherwise.
func (g *Gateway) placeFresh(candidates []*replicaState, inputs core.Values) (*replicaState, error) {
	if rs := localityReplica(candidates, inputs); rs != nil {
		return rs, nil
	}
	return g.placeSpread(candidates)
}

// routeSubmit places one job submission.  A deterministic submission
// without file inputs goes to its digest home.  Everything else goes to the
// replica owning its input files, failing that to load-aware placement.
// Both the home and load-aware placement may refuse admission (non-nil err)
// when every candidate is saturated.  A submission placed by spread alone —
// not deterministic, no `"file:` in the body — while no candidate
// advertises a full queue also returns the candidates' spread lease (nil
// otherwise), for the 307 to grant.
//
// raw is the submission body.  Only the digest home and input locality read
// the inputs, so raw is decoded only for a deterministic service or when it
// holds the bytes `"file:`.  A reference spelled with JSON escapes (say
// `"\u0066ile:`) therefore loses locality but stays correct: the replica
// pulls the blob.
// A body that does not parse still forwards — the replica owns input
// validation and its 400 passes through unchanged — it is just placed
// without a digest home or file references.
func (g *Gateway) routeSubmit(service string, raw []byte) (rs *replicaState, lease []string, err error) {
	e := g.candidates(service)
	candidates := e.replicas
	if len(candidates) == 0 {
		return nil, nil, nil
	}
	deterministic := candidates[0].deterministic(service)
	if !deterministic && !bytes.Contains(raw, fileRefMarker) {
		rs, err = g.placeSpread(candidates)
		if err == nil && e.lease != nil && !anyQueueFull(candidates) {
			lease = e.lease
		}
		return rs, lease, err
	}
	inputs := decodeInputs(raw)
	// With file inputs, the owner prefix is already a deterministic home.
	if deterministic && !hasFileRef(inputs) {
		// Routing only needs a key every gateway derives alike: a key that
		// differs from the replica's degrades to a recomputation, never to a
		// wrong answer — the replica's own memo gate derives the real key.
		// Defaults are applied first, as the replica does, so a request
		// that omits a defaulted input shares the home of one that spells
		// it out.
		desc, _ := candidates[0].describe(service)
		if key, err := core.CanonicalHash(desc.Name, desc.Version, desc.ApplyDefaults(inputs), nil); err == nil {
			rs, err = digestHome(candidates, key)
			return rs, nil, err
		}
	}
	rs, err = g.placeFresh(candidates, inputs)
	return rs, nil, err
}

// anyQueueFull reports whether some candidate advertises a full queue: a
// lease would keep sending it work the gateway's placement steers away.
func anyQueueFull(candidates []*replicaState) bool {
	for _, rs := range candidates {
		if rs.queueFull() {
			return true
		}
	}
	return false
}

// decodeInputs decodes a submission body as json.Unmarshal into a nil
// core.Values would, nil for a body that does not parse.
func decodeInputs(raw []byte) core.Values {
	if inputs, ok := core.DecodeValues(raw); ok {
		return inputs
	}
	var inputs core.Values
	_ = json.Unmarshal(raw, &inputs)
	return inputs
}

// hasFileRef reports whether any input is a file reference.
func hasFileRef(inputs core.Values) bool {
	for _, v := range inputs {
		if _, ok := core.FileRefID(v); ok {
			return true
		}
	}
	return false
}

// digestHome places a deterministic submission on its memo key's home: the
// candidate with the highest rendezvousScore(key, replica) among those
// without a full queue.  Every gateway computes the same home with no shared
// state, so identical submissions through any number of gateways meet in one
// replica's singleflight and resubmissions find that replica's cache; a full
// home spills to the next replica in rendezvous order (bounded-load
// consistent hashing).  When every candidate is full it refuses admission.
func digestHome(candidates []*replicaState, key string) (*replicaState, error) {
	var home *replicaState
	var best uint64
	for _, c := range candidates {
		if c.queueFull() {
			continue
		}
		if s := rendezvousScore(key, c.name); home == nil || s > best {
			home, best = c, s
		}
	}
	if home == nil {
		return nil, refuseSaturated()
	}
	return home, nil
}
