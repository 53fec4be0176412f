package core

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

// gatewayLease is a lease as a gateway grants one: its load interval and
// two replicas in rendezvous order.
var gatewayLease = SpreadLease{For: 2 * time.Second, Replicas: []LeasedReplica{
	{Name: "r02", Base: "http://127.0.0.1:8192"},
	{Name: "r01", Base: "http://127.0.0.1:8191"},
}}

func TestSpreadLeaseRoundTrip(t *testing.T) {
	v, err := FormatSpreadLease(gatewayLease)
	if want := "2s; r02=http://127.0.0.1:8192, r01=http://127.0.0.1:8191"; err != nil || v != want {
		t.Fatalf("FormatSpreadLease = %q, %v; want %q", v, err, want)
	}
	got, err := ParseSpreadLease(v)
	if err != nil || !reflect.DeepEqual(got, gatewayLease) {
		t.Fatalf("ParseSpreadLease(%q) = %+v, %v; want %+v", v, got, err, gatewayLease)
	}
	// Optional whitespace around items is the header's, not the lease's.
	if got, err := ParseSpreadLease(" 250ms ;r01=https://a.example/mc ,  r02=http://b:80"); err != nil ||
		got.For != 250*time.Millisecond || len(got.Replicas) != 2 || got.Replicas[0].Base != "https://a.example/mc" {
		t.Fatalf("lease with optional whitespace: %+v, %v", got, err)
	}
}

func TestSpreadLeaseRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"2s",                                 // no replica list
		"2s;",                                // empty replica
		"0s; r01=http://a:1",                 // not positive
		"-1s; r01=http://a:1",                // not positive
		"soon; r01=http://a:1",               // not a duration
		"2s; R01=http://a:1",                 // invalid name
		"2s; r-1=http://a:1",                 // invalid name
		"2s; =http://a:1",                    // empty name
		"2s; aaaaaaaaaaaaaaaaa=http://a:1",   // 17 characters
		"2s; r01=http://a:1, r01=http://b:2", // duplicate name
		"2s; r01",                            // no base
		"2s; r01=",                           // empty base
		"2s; r01=/services",                  // relative
		"2s; r01=ftp://a:1",                  // not http(s)
		"2s; r01=http://",                    // no host
		"2s; r01=http://a:1/",                // trailing slash
		"2s; r01=http://a:1?x=1",             // query
		"2s; r01=http://a:1#f",               // fragment
		"2s; r01=http://u@a:1",               // user info
		"2s; r01=http://a:1/p q",             // space
		"2s; r01=http://a:1/%2e",             // escape
		"2s; r01=mailto:x@y",                 // opaque
	} {
		if l, err := ParseSpreadLease(bad); err == nil {
			t.Errorf("ParseSpreadLease(%q) = %+v, want an error", bad, l)
		}
	}
	// The formatter refuses what the parser would reject, including a base
	// whose surrounding space the header's syntax would drop.
	ok := LeasedReplica{Name: "r01", Base: "http://a:1"}
	for _, bad := range []SpreadLease{
		{For: 0, Replicas: []LeasedReplica{ok}},
		{For: time.Second},
		{For: time.Second, Replicas: []LeasedReplica{ok, ok}},
		{For: time.Second, Replicas: []LeasedReplica{{Name: "r 1", Base: "http://a:1"}}},
		{For: time.Second, Replicas: []LeasedReplica{{Name: "r01", Base: "http://a:1 "}}},
		{For: time.Second, Replicas: []LeasedReplica{{Name: "r01", Base: "http://a:1, r02=http://b:2"}}},
	} {
		if v, err := FormatSpreadLease(bad); err == nil {
			t.Errorf("FormatSpreadLease(%+v) = %q, want an error", bad, v)
		}
	}
}

// FuzzSpreadLease fuzzes the one parser both tiers share.  Whatever the
// input, the parser does not panic; what it accepts holds only valid
// replica names, listed once, absolute http(s) bases and a positive lease,
// and formats back to itself.  A lease built from the fuzzed fields either
// is refused by the formatter or parses back to exactly those fields.
func FuzzSpreadLease(f *testing.F) {
	granted, err := FormatSpreadLease(gatewayLease)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(granted, int64(2*time.Second), "r01", "http://127.0.0.1:8191")
	f.Add("1m0s; r01=http://10.0.0.1:8081", int64(time.Minute), "r01", "https://replica.example/mc")
	f.Add("2s; r01=http://a:1, r01=http://b:2", int64(0), "R01", "ftp://a")
	f.Add("9223372036854775807ns; a=http://x", int64(-1), "", "http://x/")
	f.Fuzz(func(t *testing.T, v string, ttl int64, name, base string) {
		if l, err := ParseSpreadLease(v); err == nil {
			checkLease(t, v, l)
			w, err := FormatSpreadLease(l)
			if err != nil {
				t.Fatalf("%q: format(%+v) refused what parse accepted: %v", v, l, err)
			}
			if again, err := ParseSpreadLease(w); err != nil || !reflect.DeepEqual(again, l) {
				t.Fatalf("%q: parse(format(%+v)) = %+v, %v", v, l, again, err)
			}
		}
		x := SpreadLease{For: time.Duration(ttl), Replicas: []LeasedReplica{{Name: name, Base: base}, {Name: "z" + name, Base: base}}}
		if w, err := FormatSpreadLease(x); err == nil {
			l, err := ParseSpreadLease(w)
			if err != nil || !reflect.DeepEqual(l, x) {
				t.Fatalf("parse(format(%+v)) = %+v, %v", x, l, err)
			}
			checkLease(t, w, l)
		}
	})
}

// checkLease fails t unless l is a lease ParseSpreadLease may accept.
func checkLease(t *testing.T, v string, l SpreadLease) {
	t.Helper()
	if l.For <= 0 || len(l.Replicas) == 0 {
		t.Fatalf("%q accepted with lease %v and %d replicas", v, l.For, len(l.Replicas))
	}
	seen := map[string]bool{}
	for _, r := range l.Replicas {
		if !ValidReplicaName(r.Name) || seen[r.Name] {
			t.Fatalf("%q accepted with replica name %q (twice: %v)", v, r.Name, seen[r.Name])
		}
		seen[r.Name] = true
		u, err := url.Parse(r.Base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || strings.HasSuffix(r.Base, "/") {
			t.Fatalf("%q accepted with base %q", v, r.Base)
		}
	}
}
