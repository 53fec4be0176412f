package events

import (
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestServeDropsCoveredEvents races two transitions in between the
// subscription and the snapshot, and one after it.  A snapshot that
// reports what it covers is not followed by the two older events; one that
// reports nothing is followed by all three.
func TestServeDropsCoveredEvents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reports bool
		want    []string
	}{
		{"covered", true, []string{"2 snap", "3 new"}},
		{"unknown", false, []string{"0 snap", "1 old1", "2 old2", "3 new"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBus(Options{})
			defer b.Close()
			const topic = "job/1"
			rec := httptest.NewRecorder()
			Serve(rec, httptest.NewRequest("GET", "/events", nil), Stream{
				Bus:   b,
				Topic: topic,
				Type:  TypeJob,
				Snapshot: func() ([]byte, uint64, bool, error) {
					b.Publish(topic, TypeJob, false, []byte("old1"))
					b.Publish(topic, TypeJob, false, []byte("old2"))
					var covered uint64
					if tc.reports {
						covered = b.Seq(topic)
					}
					b.Publish(topic, TypeJob, true, []byte("new"))
					return []byte("snap"), covered, false, nil
				},
			})
			var got []string
			sc := NewScanner(rec.Body)
			for {
				ev, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%d %s", ev.ID, ev.Data))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("frames %q, want %q", got, tc.want)
			}
		})
	}
}
