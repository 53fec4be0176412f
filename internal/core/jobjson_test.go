package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/jobfuzz"
)

// fuzzJob assembles a job exercising every field of the encoding.
func fuzzJob(text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) *Job {
	created := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
	j := &Job{
		ID:          text,
		Service:     other,
		State:       JobState(text),
		Error:       other,
		Created:     created,
		Submitted:   created,
		Started:     created.Add(time.Duration(d)),
		Destruction: time.Unix(sec/7, 0).UTC(),
		QueueWait:   Duration(d),
		RunTime:     Duration(-d / 3),
		TraceID:     text,
		Owner:       other,
		URI:         text + other,
		Outputs:     Values{"x": x, text: jobfuzz.Value(kind, x, other)},
	}
	if kind&1 == 0 {
		j.Finished = created.Add(time.Duration(2 * d))
		j.Log = []string{text, other}
		j.Blocks = map[string]JobState{text: JobState(other), "b": StateDone}
	}
	var inputs Values
	if json.Unmarshal(raw, &inputs) == nil {
		j.Inputs = inputs
	}
	return j
}

// FuzzJobJSON holds AppendJSON, JobPage's and a prefixed JobEncoder's
// encodings to encoding/json: the same bytes whenever json.Marshal
// succeeds, and an error exactly when it fails.
func FuzzJobJSON(f *testing.F) {
	f.Add("r01-00ff", "maxima", []byte(`{"expr":"1+1","n":[1,2.5,{"a":null}]}`), 0.5, uint8(3), int64(1700000000), int64(123456789), int32(0), int64(1500))
	f.Fuzz(func(t *testing.T, text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) {
		j := fuzzJob(text, other, raw, x, kind, sec, nsec, zone, d)
		want, wantErr := json.Marshal((*plainJob)(j))
		got, gotErr := j.AppendJSON(nil)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		// An encoder with a uri prefix writes prefix+ID in place of the
		// job's own URI, and copies a plain ID and trace unscanned.
		prefixed := *j
		if other != "" {
			prefixed.URI = other + j.ID
		}
		want, wantErr = json.Marshal((*plainJob)(&prefixed))
		e := NewJobEncoder(other)
		got, gotErr = e.Append(nil, j, PlainString(j.ID), PlainString(j.TraceID))
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("JobEncoder.Append with prefix %q = %s, %v; want %s, %v", other, got, gotErr, want, wantErr)
		}

		page := &JobPage{Jobs: []*Job{j, nil}, Limit: int(kind), Offset: -int(kind), Total: 2}
		want, wantErr = json.Marshal(map[string]any{
			"jobs": []*plainJob{(*plainJob)(j), nil}, "limit": page.Limit, "offset": page.Offset, "total": page.Total,
		})
		got, gotErr = page.AppendJSON([]byte("prefix"))
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("JobPage.AppendJSON = %s, %v; want %s, %v", got, gotErr, want, wantErr)
		}

		// A second job whose durations come from other inputs covers more
		// of Duration's text than the first job does.
		other2 := *j
		other2.ID = other
		other2.QueueWait = Duration(sec)
		other2.RunTime = Duration(nsec ^ d)
		page = &JobPage{Jobs: []*Job{j, nil, &other2}, Limit: int(kind), Total: 3}
		want, wantErr = json.Marshal(map[string]any{
			"jobs": []*plainJob{(*plainJob)(j), nil, (*plainJob)(&other2)}, "limit": page.Limit, "offset": page.Offset, "total": page.Total,
		})
		got, gotErr = page.AppendJSON(nil)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("JobPage.AppendJSON of two jobs = %s, %v; want %s, %v", got, gotErr, want, wantErr)
		}

		// A page's jobs share one time memo: times in one second, with
		// fractions of zero and with trailing zeros, that second in two
		// Locations, and zero times in UTC and in other zones.
		page = &JobPage{Jobs: secondJobs(j, sec, nsec, zone), Total: 4}
		var plain []*plainJob
		for _, pj := range page.Jobs {
			plain = append(plain, (*plainJob)(pj))
		}
		want, wantErr = json.Marshal(map[string]any{
			"jobs": plain, "limit": page.Limit, "offset": page.Offset, "total": page.Total,
		})
		got, gotErr = page.AppendJSON(nil)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("JobPage.AppendJSON of jobs in one second = %s, %v; want %s, %v", got, gotErr, want, wantErr)
		}
	})
}

// secondJobs returns j and three jobs whose times fall in j's second sec:
// with fractions of zero, of nsec and with trailing zeros, in the zone of
// j's Created, in a second zone with another offset and in UTC, beside zero
// times in UTC and in both zones.
func secondJobs(j *Job, sec, nsec int64, zone int32) []*Job {
	loc1 := j.Created.Location()
	loc2 := time.FixedZone("second", int(zone)+5400)
	at := func(ns int64, loc *time.Location) time.Time { return time.Unix(sec, ns).In(loc) }
	frac := nsec % 1e9
	if frac < 0 {
		frac = -frac
	}
	jobs := []*Job{j}
	for _, times := range [][5]time.Time{
		{at(0, loc1), at(frac, loc1), at(1e8, loc1), at(frac/1000*1000, loc1), time.Time{}.In(loc1)},
		{at(0, loc2), at(frac, loc2), at(0, loc1), at(12e7, loc2), time.Time{}},
		{at(frac, loc1), at(frac, time.UTC), at(frac, loc2), time.Time{}.In(loc2), at(1e8, loc1)},
	} {
		k := *j
		k.Created, k.Submitted, k.Started, k.Finished, k.Destruction = times[0], times[1], times[2], times[3], times[4]
		jobs = append(jobs, &k)
	}
	return jobs
}

// TestJobMarshalJSONDelegates pins that encoding/json reaches AppendJSON for
// a job anywhere in a value, and that a nil page list stays null.
func TestJobMarshalJSONDelegates(t *testing.T) {
	j := fuzzJob("id<1>", "svc\u2028", []byte(`{"a":[1e21,1e-7,-0]}`), math.Copysign(0, -1), 4, 1e9, 5, 3600, int64(time.Millisecond))
	want, err := json.Marshal((*plainJob)(j))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(struct {
		Job *Job `json:"job"`
	}{j})
	if err != nil || !bytes.Equal(got, []byte(`{"job":`+string(want)+`}`)) {
		t.Fatalf("json.Marshal of a wrapped job = %s, %v; want the AppendJSON bytes", got, err)
	}
	page, err := (&JobPage{}).AppendJSON(nil)
	if err != nil || string(page) != `{"jobs":null,"limit":0,"offset":0,"total":0}` {
		t.Fatalf("empty page = %s, %v", page, err)
	}
	j.Outputs["bad"] = math.NaN()
	if _, err := j.AppendJSON(nil); err == nil {
		t.Fatal("AppendJSON accepted NaN")
	}
}

// landedJob is a typical DONE sweep child as a page carries it.
func landedJob(i int) *Job {
	now := time.Date(2026, 10, 17, 7, 43, 51, 123456789, time.UTC)
	return &Job{
		ID:        "r01-0123456789abcdef0123456789abcdef",
		Service:   "inc",
		State:     StateDone,
		Inputs:    Values{"x": float64(i)},
		Outputs:   Values{"y": float64(i) + 1},
		Created:   now,
		Submitted: now,
		Started:   now.Add(3 * time.Millisecond),
		Finished:  now.Add(3*time.Millisecond + 41*time.Microsecond),
		QueueWait: Duration(3 * time.Millisecond),
		RunTime:   Duration(41 * time.Microsecond),
		TraceID:   "4f1c2a9e0b7d3c56",
		URI:       "http://127.0.0.1:8080/services/inc/jobs/r01-0123456789abcdef0123456789abcdef",
	}
}

// TestJobJSONAllocs budgets the allocations of encoding from an empty
// buffer: only the buffer's growth allocates, never a field or a map.
func TestJobJSONAllocs(t *testing.T) {
	j := landedJob(7)
	n := testing.AllocsPerRun(100, func() { _, _ = j.AppendJSON(nil) })
	t.Logf("one job: %v allocs", n)
	if n > 8 {
		t.Errorf("one job: %v allocs, budget 8", n)
	}
	page := &JobPage{Total: 1000}
	for i := 0; i < 1000; i++ {
		page.Jobs = append(page.Jobs, landedJob(i))
	}
	n = testing.AllocsPerRun(20, func() { _, _ = page.AppendJSON(nil) })
	t.Logf("1,000-job page: %v allocs", n)
	if n > 64 {
		t.Errorf("1,000-job page: %v allocs, budget 64", n)
	}
}

// TestJobPageReserveBounded: the page reserves from its first job's size,
// so a listing whose newest job is large and whose others are small must
// not reserve the large size for each of them.
func TestJobPageReserveBounded(t *testing.T) {
	big := landedJob(0)
	big.Inputs = Values{"x": strings.Repeat("a", 1<<20)}
	page := &JobPage{Jobs: []*Job{big}, Total: 1001}
	for i := 1; i <= 1000; i++ {
		page.Jobs = append(page.Jobs, landedJob(i))
	}
	b, err := page.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("len %d, cap %d", len(b), cap(b))
	if cap(b) > 2*len(b) {
		t.Errorf("page of %d bytes holds a %d-byte buffer, more than twice its size", len(b), cap(b))
	}
}

// BenchmarkJobPageJSON compares the hand-written page encoder with the
// reflection encoding it replaces.
func BenchmarkJobPageJSON(b *testing.B) {
	page := &JobPage{Total: 1000}
	for i := 0; i < 1000; i++ {
		page.Jobs = append(page.Jobs, landedJob(i))
	}
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = page.AppendJSON(buf[:0])
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		plain := make([]*plainJob, len(page.Jobs))
		for i, j := range page.Jobs {
			plain[i] = (*plainJob)(j)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(map[string]any{"jobs": plain, "limit": 0, "offset": 0, "total": 1000})
		}
	})
}
