package core

import (
	"strings"
	"testing"
)

// FuzzFileOwner checks FileOwner on arbitrary parameter values: it never
// panics, an owner it reports is a valid replica name, and a file ID names
// the same owner in its bare form and in its absolute-URI form.
func FuzzFileOwner(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string) {
		for _, v := range []string{id, FileRef(id)} {
			if owner, ok := FileOwner(v); ok && !ValidReplicaName(owner) {
				t.Fatalf("FileOwner(%q) = %q, not a valid replica name", v, owner)
			}
		}
		if strings.Contains(id, "/") {
			return // a file ID is a single path segment
		}
		bare, bareOK := FileOwner(FileRef(id))
		uri, uriOK := FileOwner(FileRef("http://gw.example:8190/files/" + id))
		if bare != uri || bareOK != uriOK {
			t.Fatalf("ID %q: bare form owned by (%q, %v), URI form by (%q, %v)", id, bare, bareOK, uri, uriOK)
		}
	})
}

// TestFileHome pins the locality rule both tiers place by: the candidate
// owning most of the inputs' file references wins, in either reference
// form; no owned reference, a tie and owners outside the candidates leave
// the decision to spread.
func TestFileHome(t *testing.T) {
	ref := func(replica, n string) string { return FileRef(replica + "-" + strings.Repeat(n, 32)) }
	uri := func(replica, n string) string {
		return FileRef("http://gw.example:8190/files/" + replica + "-" + strings.Repeat(n, 32))
	}
	candidates := []string{"r03", "r01", "r02"}
	cases := []struct {
		name   string
		inputs Values
		want   int // -1: no home
	}{
		{"no inputs", nil, -1},
		{"no file reference", Values{"x": 1.0, "s": "file-like but not a ref"}, -1},
		{"one bare reference", Values{"f": ref("r02", "a"), "n": 3.0}, 2},
		{"one absolute reference", Values{"f": uri("r01", "a")}, 1},
		{"majority", Values{"a": ref("r03", "a"), "b": uri("r03", "b"), "c": ref("r01", "c")}, 0},
		{"tie", Values{"a": ref("r03", "a"), "b": ref("r01", "b")}, -1},
		{"foreign owner", Values{"f": ref("r09", "a")}, -1},
		{"foreign majority", Values{"a": ref("r09", "a"), "b": ref("r09", "b"), "c": ref("r02", "c")}, 2},
		{"untagged ID", Values{"f": FileRef(strings.Repeat("a", 32))}, -1},
		{"not a string", Values{"f": []any{ref("r01", "a")}}, -1},
	}
	for _, tc := range cases {
		got, ok := FileHome(tc.inputs, len(candidates), func(i int) string { return candidates[i] })
		if !ok {
			got = -1
		}
		if got != tc.want {
			t.Errorf("%s: FileHome = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFileHomeAllocs: inputs without a file reference cost no allocation,
// which keeps the rule off the budget of a file-less submit.
func TestFileHomeAllocs(t *testing.T) {
	inputs := Values{"x": 1.0, "s": "plain"}
	names := []string{"r01", "r02"}
	allocs := testing.AllocsPerRun(100, func() {
		FileHome(inputs, len(names), func(i int) string { return names[i] })
	})
	if allocs != 0 {
		t.Fatalf("FileHome without file references allocates %.0f times, want 0", allocs)
	}
}
