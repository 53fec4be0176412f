package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// plainPage is JobPage with method-less jobs: json.Unmarshal into it is the
// reflection decoding a page's UnmarshalJSON must reproduce.
type plainPage struct {
	Jobs   []*plainJob `json:"jobs"`
	Limit  int         `json:"limit"`
	Offset int         `json:"offset"`
	Total  int         `json:"total"`
}

// prefilled is a target that already holds data, which encoding/json merges
// into: maps keep their entries, absent fields keep their values.
func prefilled() *Job {
	return &Job{
		ID:      "old",
		State:   StateRunning,
		Inputs:  Values{"keep": "me", "x": 0.5},
		Created: time.Date(2020, 1, 2, 3, 4, 5, 6, time.UTC),
		Blocks:  map[string]JobState{"a": StateDone},
		Log:     []string{"first"},
	}
}

// checkDecode holds UnmarshalJSON to encoding/json on data: as a job, as the
// only job of a page, and into a target that holds data.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want Job
	gotErr := got.UnmarshalJSON(data)
	wantErr := json.Unmarshal(data, (*plainJob)(&want))
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nUnmarshalJSON %+v, %v\nencoding/json %+v, %v", data, got, gotErr, want, wantErr)
	}

	wrapped := append(append([]byte(`{"jobs":[`), data...), `],"limit":1,"total":1}`...)
	var page JobPage
	var plain plainPage
	gotErr = page.UnmarshalJSON(wrapped)
	wantErr = json.Unmarshal(wrapped, &plain)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("page %q: UnmarshalJSON error %v, encoding/json error %v", wrapped, gotErr, wantErr)
	}
	if wantErr == nil {
		// On an error encoding/json stops at a job's UnmarshalJSON but
		// goes on past a field of a method-less job, so only a decoded
		// page compares.
		wantPage := JobPage{Jobs: make([]*Job, len(plain.Jobs)), Limit: plain.Limit, Offset: plain.Offset, Total: plain.Total}
		for i, j := range plain.Jobs {
			wantPage.Jobs[i] = (*Job)(j)
		}
		if plain.Jobs == nil {
			wantPage.Jobs = nil
		}
		if !reflect.DeepEqual(page, wantPage) {
			t.Fatalf("page %q:\nUnmarshalJSON %+v\nencoding/json %+v", wrapped, page, wantPage)
		}
	}

	into, intoWant := prefilled(), prefilled()
	gotErr = into.UnmarshalJSON(data)
	wantErr = json.Unmarshal(data, (*plainJob)(intoWant))
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(into, intoWant) {
		t.Fatalf("%q into a filled job:\nUnmarshalJSON %+v, %v\nencoding/json %+v, %v", data, into, gotErr, intoWant, wantErr)
	}
}

// decodeSeeds are bodies each path of the decoder must agree on: what the
// encoder writes, and what only encoding/json decodes.
var decodeSeeds = []string{
	`{"ID":"x"}`,
	`{"id":"a","id":"b"}`,
	`{"id":"a\u0062","service":"s\"q"}`,
	`{"id":"a","error":null,"inputs":null}`,
	`{"id":"a","state":"DONE","log":["one","two"],"blocks":{"b1":"RUNNING","b2":"DONE"}}`,
	`{"id":"a"} {"id":"b"}`,
	`{"id":"a"}x`,
	` {"id":"a" , "inputs" : { "n" : [ 1 , -2.5e3 , true , false , null , "s" , { } , [ ] ] } } `,
	`{"inputs":{"k":1,"k":2}}`,
	`{"outputs":{"big":1e400}}`,
	`{"queueWait":1500,"runTime":"1.5s"}`,
	`{"queueWait":"bogus"}`,
	`{"queueWait":{}}`,
	`{"created":"2026-10-17T07:43:51.123456789+02:00"}`,
	`{"created":"not a time"}`,
	`{"created":5}`,
	`{"id":5}`,
	`{"id":"\xff"}`,
	`{"id":"é"}`,
	`{"inputs":{"n":01}}`,
	`{"inputs":{"n":1.}}`,
	`{"inputs":{"n":-}}`,
	`{"unknown":1}`,
	`{"id":"a",}`,
	`{}`,
	`null`,
	` null `,
	`[]`,
	`"str"`,
	``,
	`{"blocks":{"a":null}}`,
	`{"log":[null]}`,
	`{"log":[]}`,
	`{"blocks":{}}`,
	`{"inputs":{}}`,
}

// FuzzJobDecode holds UnmarshalJSON to encoding/json for any bytes: the same
// error-ness and equal values for a job, for a one-job page and for a
// target that already holds data.
func FuzzJobDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for i, kind := range []uint8{0, 1, 3, 4, 8, 9} {
		j := fuzzJob("r01-00ff", "maxima<&>", []byte(`{"expr":"1+1","n":[1,2.5,{"a":null}]}`), 0.5,
			kind, 1700000000+int64(i), 123456789, int32(3600*i), 1500)
		if b, err := j.AppendJSON(nil); err == nil {
			f.Add(b)
		}
	}
	b, _ := landedJob(7).AppendJSON(nil)
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// TestJobDecodeMatchesEncodingJSON runs the fuzzer's seeds and the
// encoder's own output through checkDecode, and checks that a page decodes
// back to the jobs it was encoded from.
func TestJobDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	page := &JobPage{Limit: 3, Offset: 2, Total: 1000}
	for i := 0; i < 3; i++ {
		j := fuzzJob("id", "svc", []byte(`{"a":[1,{"b":"c"}]}`), float64(i), uint8(2*i+3), 1e9, 5, 0, int64(time.Millisecond))
		j.Outputs = Values{"y": float64(i)}
		page.Jobs = append(page.Jobs, j, nil)
	}
	b, err := page.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got JobPage
	if err := got.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	again, _ := got.AppendJSON(nil)
	if !bytes.Equal(again, b) {
		t.Fatalf("page did not round-trip:\n got %s\nwant %s", again, b)
	}
}

// benchPage is an n-job page shaped like the benchmark's sweep children.
func benchPage(t testing.TB, n int) []byte {
	page := &JobPage{Total: n}
	for i := 0; i < n; i++ {
		page.Jobs = append(page.Jobs, landedJob(i))
	}
	b, err := page.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobPageDecodeAllocBudget pins the allocations of decoding a page per
// job.  The budget is a constant of alloc_budget_test.go, and of
// alloc_budget_race_test.go under the race detector; a change may lower
// it, never raise it.
func TestJobPageDecodeAllocBudget(t *testing.T) {
	const jobs = 64
	b := benchPage(t, jobs)
	allocs := testing.AllocsPerRun(100, func() {
		var p JobPage
		if err := p.UnmarshalJSON(b); err != nil || len(p.Jobs) != jobs {
			t.Fatalf("UnmarshalJSON: %d jobs, %v", len(p.Jobs), err)
		}
	}) / jobs
	t.Logf("%.2f allocations per job (budget %v)", allocs, jobPageDecodeAllocBudget)
	if allocs > jobPageDecodeAllocBudget {
		t.Fatalf("decoding a page allocates %.2f times per job, budget %v", allocs, jobPageDecodeAllocBudget)
	}
}

// BenchmarkJobPageDecode compares the hand-written page decoder with the
// json.Decoder the client used before it, on a 1,000-job page.
func BenchmarkJobPageDecode(b *testing.B) {
	data := benchPage(b, 1000)
	b.Run("UnmarshalJSON", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var p JobPage
			if err := p.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var p plainPage
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
