package core

import "testing"

func TestDirectID(t *testing.T) {
	id := "r01-0123456789abcdef0123456789abcdef"
	cases := []struct {
		path string
		id   string
		ok   bool
	}{
		{"/services/add/jobs/" + id, id, true},
		{"/services/add/sweeps/" + id, id, true},
		{"/services/add/sweeps/" + id + "/jobs", id, true},
		{"/files/" + id, id, true},
		{"/services/files/jobs/" + id, id, true},
		{"/services/add", "", false},        // submit or describe: placed, not direct
		{"/services/add/sweeps", "", false}, // listing: scatter-gather
		{"/services/add/jobs", "", false},
		{"/services/add/jobs/" + id + "/events", "", false}, // streams stay on the gateway
		{"/services/add/sweeps/" + id + "/events", "", false},
		{"/services/add/events", "", false},
		{"/services/add/jobs/", "", false},
		{"/services//jobs/" + id, "", false},
		{"/files", "", false},
		{"/mc/files/" + id, "", false}, // relative to the base, not under it
		{"/", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, ok := DirectID(c.path)
		if got != c.id || ok != c.ok {
			t.Errorf("DirectID(%q) = (%q, %v), want (%q, %v)", c.path, got, ok, c.id, c.ok)
		}
	}
}
