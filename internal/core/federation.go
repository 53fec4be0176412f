package core

// Federation wire types: the replica-side memo index feed and the load
// report consumed by the gateway's placement policy.  These travel over
// plain JSON on the infrastructure plane (GET /memo, GET /load) and are
// deliberately small — the gateway polls them at load-interval cadence
// for every replica.

// ReplicaHeader carries the identity of the container replica that answered
// a request.  Gateways and clients use it to attribute responses (and debug
// misrouted affinity IDs) in federated deployments; the client learns a
// replica's base URL from the answer a gateway redirected it to.
const ReplicaHeader = "X-MC-Replica"

// RoutePreference is the RFC 7240 preference ("Prefer: mc-route") with which
// a client asks a gateway to answer a placed or ID-routed request with a 307
// to the replica that serves it, instead of proxying it.  A gateway that
// honours it says so in Preference-Applied.
const RoutePreference = "mc-route"

// MemoIndexEntry advertises one memoized deterministic result: the
// canonical input digest, the owning service and the backing job whose
// outputs the entry replays.
type MemoIndexEntry struct {
	Key     string `json:"key"`
	Service string `json:"service"`
	JobID   string `json:"jobID"`
}

// MemoIndexPage is one page of a replica's memo index delta feed.
// Seq is the replica's cursor after applying this page; clients pass it
// back as ?since= on the next poll.  When the replica can no longer
// serve an incremental answer (cursor predates its bounded delta log,
// or the table was reset wholesale) it sets Reset and Entries carries
// the full current index — the consumer must drop everything it
// previously learned from this replica.
type MemoIndexPage struct {
	Replica string           `json:"replica,omitempty"`
	Seq     uint64           `json:"seq"`
	Reset   bool             `json:"reset,omitempty"`
	Entries []MemoIndexEntry `json:"entries,omitempty"`
	Dropped []string         `json:"dropped,omitempty"`
}

// LoadReport is a replica's point-in-time load advertisement, the input
// to the gateway's power-of-two-choices placement and saturation-based
// admission control.
type LoadReport struct {
	Replica     string `json:"replica,omitempty"`
	QueueDepth  int    `json:"queueDepth"`
	QueueCap    int    `json:"queueCap"`
	Running     int    `json:"running"`
	Workers     int    `json:"workers"`
	MemoEntries int    `json:"memoEntries"`
	MemoBytes   int64  `json:"memoBytes"`
}
