package core

// Federation wire types: the load report consumed by the gateway's
// placement policy and the headers gateways, replicas and clients exchange.
// The load report travels as plain JSON on the infrastructure plane
// (GET /load) and is deliberately small — the gateway polls it at
// load-interval cadence for every replica.

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
