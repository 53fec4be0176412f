package core

import "testing"

func TestTagAndSplitReplicaID(t *testing.T) {
	id := NewID()
	tagged := TagID("r03", id)
	if tagged != "r03-"+id {
		t.Fatalf("TagID = %q, want r03-%s", tagged, id)
	}
	replica, ok := SplitReplicaID(tagged)
	if !ok || replica != "r03" {
		t.Fatalf("SplitReplicaID(%q) = %q,%v, want r03,true", tagged, replica, ok)
	}
	// An empty replica name leaves the ID in its bare pre-federation form.
	if got := TagID("", id); got != id {
		t.Fatalf("TagID(\"\") = %q, want %q", got, id)
	}
	if _, ok := SplitReplicaID(id); ok {
		t.Fatalf("SplitReplicaID(%q) matched a bare ID", id)
	}
}

func TestSplitReplicaIDRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"-abc",                      // empty prefix
		"r03-",                      // empty remainder
		"R03-abc",                   // uppercase prefix
		"r_3-abc",                   // invalid character
		"aaaaaaaaaaaaaaaaa-abc",     // 17-char prefix
		"no dash at all 0123456789", // spaces, no dash
	} {
		if rep, ok := SplitReplicaID(bad); ok {
			t.Errorf("SplitReplicaID(%q) = %q,true, want false", bad, rep)
		}
	}
	// Boundary: a 16-character prefix is the longest accepted.
	if rep, ok := SplitReplicaID("aaaaaaaaaaaaaaaa-x"); !ok || rep != "aaaaaaaaaaaaaaaa" {
		t.Errorf("16-char prefix rejected: %q %v", rep, ok)
	}
}

// TestSplitReplicaIDNestedAndOpaque pins the first-dash-wins contract the
// federation relies on: a gateway-of-gateways tag (r01-r02-<hex>) splits at
// the OUTER prefix with the remainder kept opaque, and a remainder that is
// not hex still splits — SplitReplicaID validates the prefix, never the
// payload.  Cross-replica routing depends on both properties.
func TestSplitReplicaIDNestedAndOpaque(t *testing.T) {
	id := NewID()
	nested := TagID("r01", TagID("r02", id))
	rep, ok := SplitReplicaID(nested)
	if !ok || rep != "r01" {
		t.Fatalf("SplitReplicaID(%q) = %q,%v, want r01,true", nested, rep, ok)
	}
	// Re-splitting the remainder peels the inner layer.
	inner := nested[len("r01-"):]
	if rep, ok := SplitReplicaID(inner); !ok || rep != "r02" {
		t.Fatalf("SplitReplicaID(%q) = %q,%v, want r02,true", inner, rep, ok)
	}
	// Malformed (non-hex) remainders still split: the payload is opaque.
	for _, id := range []string{"r03-ZZZZ", "r03-not hex", "r03--"} {
		if rep, ok := SplitReplicaID(id); !ok || rep != "r03" {
			t.Errorf("SplitReplicaID(%q) = %q,%v, want r03,true", id, rep, ok)
		}
	}
	// TagID never re-validates: tagging an already-tagged ID nests.
	if got := TagID("r01", "r02-abc"); got != "r01-r02-abc" {
		t.Errorf("TagID nesting = %q, want r01-r02-abc", got)
	}
	// TagID with an empty ID still produces a split-rejected value
	// (empty remainder), so malformed mints cannot masquerade as remote.
	if _, ok := SplitReplicaID(TagID("r01", "")); ok {
		t.Error("SplitReplicaID accepted a tag with empty remainder")
	}
}

func TestValidReplicaName(t *testing.T) {
	for name, want := range map[string]bool{
		"r03": true, "a": true, "replica12": true,
		"": false, "R03": false, "r-3": false, "r.3": false,
		"aaaaaaaaaaaaaaaaa": false,
	} {
		if got := ValidReplicaName(name); got != want {
			t.Errorf("ValidReplicaName(%q) = %v, want %v", name, got, want)
		}
	}
}

// FuzzSplitReplicaID checks SplitReplicaID on arbitrary strings: it never
// panics, and a split it accepts yields a valid replica name that TagID
// reassembles into the original ID.
func FuzzSplitReplicaID(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string) {
		replica, ok := SplitReplicaID(id)
		if !ok {
			return
		}
		if !ValidReplicaName(replica) {
			t.Fatalf("SplitReplicaID(%q) = %q, not a valid replica name", id, replica)
		}
		rest := id[len(replica)+1:]
		if rest == "" || TagID(replica, rest) != id {
			t.Fatalf("SplitReplicaID(%q) = %q does not reassemble (remainder %q)", id, replica, rest)
		}
	})
}
