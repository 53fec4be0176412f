package core

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"
)

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

// SpreadLeaseHeader carries a spread lease (SpreadLease) on the 307 with
// which a gateway that polls load routes work it places afresh: a job
// submission to a service that is not deterministic, while no candidate
// advertises a full queue, or an upload.  Until the lease runs out the
// client may place such requests to the same path itself, instead of
// asking the gateway each time: a submission on the leased replica that
// owns most of its input files (FileHome), the rest round-robin over the
// leased replicas (DESIGN.md §5h.5).
const SpreadLeaseHeader = "X-MC-Spread-Lease"

// SpreadLease is the candidate set a gateway leases to a client: the
// healthy replicas of the service (or, for uploads, of the federation) in
// the gateway's order, each with the base URL the gateway reaches it at,
// for one load interval.
type SpreadLease struct {
	For      time.Duration
	Replicas []LeasedReplica
}

// LeasedReplica is one replica of a spread lease.
type LeasedReplica struct {
	Name string // its identity (ValidReplicaName), as X-MC-Replica answers
	Base string // the absolute http(s) URL its API hangs off, no trailing "/"
}

// FormatSpreadLease renders l as the SpreadLeaseHeader value
// "<duration>; <name>=<base>, <name>=<base>…", the duration in
// time.Duration's notation.  It refuses a lease ParseSpreadLease would
// reject, so what it renders parses back to exactly l.
func FormatSpreadLease(l SpreadLease) (string, error) {
	if err := l.check(); err != nil {
		return "", err
	}
	b := append(make([]byte, 0, 64), l.For.String()...)
	for i, r := range l.Replicas {
		if i == 0 {
			b = append(b, "; "...)
		} else {
			b = append(b, ", "...)
		}
		b = append(append(append(b, r.Name...), '='), r.Base...)
	}
	return string(b), nil
}

// ParseSpreadLease parses a SpreadLeaseHeader value.  It rejects a lease
// that is not positive, an empty replica list, a name that is not
// ValidReplicaName, a name listed twice, and a base that is not an
// absolute http(s) URL without query, fragment, user info or trailing "/".
func ParseSpreadLease(v string) (SpreadLease, error) {
	ttl, list, ok := strings.Cut(v, ";")
	if !ok {
		return SpreadLease{}, errors.New("spread lease: no replica list")
	}
	ttl = strings.TrimSpace(ttl)
	d, err := time.ParseDuration(ttl)
	if err != nil {
		return SpreadLease{}, fmt.Errorf("spread lease: lease %q is not a duration", ttl)
	}
	items := strings.Split(list, ",")
	l := SpreadLease{For: d, Replicas: make([]LeasedReplica, len(items))}
	for i, item := range items {
		name, base, _ := strings.Cut(strings.TrimSpace(item), "=")
		l.Replicas[i] = LeasedReplica{Name: name, Base: base}
	}
	if err := l.check(); err != nil {
		return SpreadLease{}, err
	}
	return l, nil
}

// check reports why l may not stand in a SpreadLeaseHeader, if it may not.
func (l SpreadLease) check() error {
	if l.For <= 0 {
		return fmt.Errorf("spread lease: lease %v is not positive", l.For)
	}
	if len(l.Replicas) == 0 {
		return errors.New("spread lease: no replicas")
	}
	for i, r := range l.Replicas {
		if !ValidReplicaName(r.Name) {
			return fmt.Errorf("spread lease: invalid replica name %q", r.Name)
		}
		for _, earlier := range l.Replicas[:i] {
			if earlier.Name == r.Name {
				return fmt.Errorf("spread lease: replica %q listed twice", r.Name)
			}
		}
		if !validLeaseBase(r.Base) {
			return fmt.Errorf("spread lease: replica %s: base %q is not an absolute http(s) URL", r.Name, r.Base)
		}
	}
	return nil
}

// validLeaseBase reports whether base may stand in a spread lease: an
// absolute http or https URL with a host, no user info, query, fragment or
// trailing "/", and none of the bytes the header's syntax or a URL's
// escaping would need.
func validLeaseBase(base string) bool {
	if base == "" || base[len(base)-1] == '/' {
		return false
	}
	for i := 0; i < len(base); i++ {
		switch c := base[i]; {
		case c <= ' ' || c >= 0x7f, c == ',', c == ';', c == '?', c == '#', c == '%', c == '\\':
			return false
		}
	}
	u, err := url.Parse(base)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != "" && u.User == nil && u.Opaque == ""
}

// FileOwner returns the replica prefix of the file a parameter value
// references, for both forms a reference takes: the bare federation ID
// ("file:r02-<hex>") and the absolute URI minted by a replica
// ("file:http://gw/files/r02-<hex>").
func FileOwner(v any) (string, bool) {
	ref, ok := FileRefID(v)
	if !ok {
		return "", false
	}
	if i := strings.LastIndex(ref, "/files/"); i >= 0 {
		ref = ref[i+len("/files/"):]
	}
	return SplitReplicaID(ref)
}

// FileHome is the input-locality rule of placement (DESIGN.md §5j.3), which
// a gateway and a client holding its spread lease both run: among n
// candidates, where name(i) is the i-th one's replica name, it returns the
// index of the one that owns the most of the file references among inputs,
// and false when no candidate owns any or two of them tie.  Inputs without
// a file reference cost one pass over them and no allocation.
func FileHome(inputs Values, n int, name func(i int) string) (int, bool) {
	var owned []int // per candidate; allocated on the first owned reference
	for _, v := range inputs {
		owner, ok := FileOwner(v)
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			if name(i) == owner {
				if owned == nil {
					owned = make([]int, n)
				}
				owned[i]++
				break
			}
		}
	}
	best, tie := -1, false
	for i, k := range owned {
		switch {
		case k == 0:
		case best < 0 || k > owned[best]:
			best, tie = i, false
		case k == owned[best]:
			tie = true
		}
	}
	return best, best >= 0 && !tie
}
