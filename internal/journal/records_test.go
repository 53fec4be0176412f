package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/jobfuzz"
)

// Method-less copies of the hand-encoded records: json.Marshal of one is
// the reflection encoding its AppendJSON must reproduce.  A JobRecord's job
// still encodes through core.Job's own encoder, which FuzzJobJSON holds to
// encoding/json.
type (
	plainJobRecord      JobRecord
	plainJobEndRecord   JobEndRecord
	plainJobPurgeRecord JobPurgeRecord
)

// recordPair is one hand-encoded record and its method-less copy.
type recordPair struct {
	kind  Kind
	hand  core.JSONAppender
	plain any
}

// fuzzRecords builds every hand-encoded record kind from one fuzz input,
// with FuzzJobJSON's parameters, so its seed corpus applies unchanged.
func fuzzRecords(text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) []recordPair {
	created := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
	outputs := core.Values{"x": x, text: jobfuzz.Value(kind, x, other)}
	var inputs core.Values
	if json.Unmarshal(raw, &inputs) != nil {
		inputs = nil
	}
	job := &core.Job{
		ID: text, Service: other, State: core.StateWaiting, Inputs: inputs,
		Created: created, Submitted: created, TraceID: other, Owner: text,
	}
	end := JobEndRecord{
		ID: text, State: core.JobState(other), Error: other,
		Finished: created.Add(time.Duration(2 * d)), Destruction: time.Unix(sec/7, 0).UTC(),
		Started: created.Add(time.Duration(d)), QueueWait: core.Duration(d), RunTime: core.Duration(-d / 3),
	}
	switch kind & 3 {
	case 0:
		end.Outputs = outputs
		end.Log = []string{text, other}
		end.Blocks = map[string]core.JobState{text: core.JobState(other), "b": core.StateDone}
	case 1:
		end.Outputs = core.Values{}
		end.Log = []string{}
		end.Blocks = map[string]core.JobState{}
	case 2:
		job = nil
	}
	rec := JobRecord{Job: job, SweepID: other, TTL: core.Duration(d)}
	return []recordPair{
		{KindJob, rec, plainJobRecord(rec)},
		{KindJobEnd, end, plainJobEndRecord(end)},
		{KindJobPurge, JobPurgeRecord{ID: text}, plainJobPurgeRecord{ID: text}},
	}
}

// FuzzJournalRecord holds every hand-encoded record to encoding/json: the
// same bytes whenever json.Marshal of its method-less copy succeeds, and an
// error exactly when it fails.  Both go through encode, so the frame of the
// AppendJSON path must equal the frame of the encoding/json path.
func FuzzJournalRecord(f *testing.F) {
	f.Add("r01-00ff", "maxima", []byte(`{"expr":"1+1","n":[1,2.5,{"a":null}]}`), 0.5, uint8(3), int64(1700000000), int64(123456789), int32(0), int64(1500))
	f.Fuzz(func(t *testing.T, text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) {
		for _, p := range fuzzRecords(text, other, raw, x, kind, sec, nsec, zone, d) {
			want, wantErr := json.Marshal(p.plain)
			got, gotErr := p.hand.AppendJSON([]byte("prefix"))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%v: AppendJSON error %v, json.Marshal error %v", p.kind, gotErr, wantErr)
			}
			if wantErr != nil {
				if got != nil {
					t.Fatalf("%v: AppendJSON failed but returned %q", p.kind, got)
				}
				if _, err := encode(p.kind, p.hand); err == nil {
					t.Fatalf("%v: encode succeeded where json.Marshal fails", p.kind)
				}
				continue
			}
			if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("%v: AppendJSON differs from encoding/json:\n got %s\nwant prefix%s", p.kind, got, want)
			}
			hand, err := encode(p.kind, p.hand)
			if err != nil {
				t.Fatalf("%v: encode: %v", p.kind, err)
			}
			plain, err := encode(p.kind, p.plain)
			if err != nil {
				t.Fatalf("%v: encode of the method-less copy: %v", p.kind, err)
			}
			if !bytes.Equal(hand, plain) {
				t.Fatalf("%v: frames differ:\n got %q\nwant %q", p.kind, hand, plain)
			}
			checkFrame(t, hand, p.kind, want)
		}
	})
}

// checkFrame verifies one frame's header against its payload.
func checkFrame(t *testing.T, frame []byte, kind Kind, body []byte) {
	t.Helper()
	if len(frame) != frameHeader+1+len(body) || Kind(frame[frameHeader]) != kind || !bytes.Equal(frame[frameHeader+1:], body) {
		t.Fatalf("frame %q does not carry kind %v and body %s", frame, kind, body)
	}
	if n := binary.LittleEndian.Uint32(frame[0:4]); int(n) != 1+len(body) {
		t.Fatalf("frame length %d, want %d", n, 1+len(body))
	}
	if sum := binary.LittleEndian.Uint32(frame[4:8]); sum != crc32.ChecksumIEEE(frame[frameHeader:]) {
		t.Fatalf("frame CRC %08x does not match its payload", sum)
	}
}

// submitRecord is the KindJob record of a freshly submitted job, as the
// container journals it before answering 201.
func submitRecord() JobRecord {
	now := time.Date(2026, 1, 2, 3, 4, 5, 678901234, time.UTC)
	return JobRecord{Job: &core.Job{
		ID:        "r01-0123456789abcdef0123456789abcdef",
		Service:   "inc",
		State:     core.StateWaiting,
		Inputs:    core.Values{"x": 7.0, "label": "point-7"},
		Created:   now,
		Submitted: now,
		TraceID:   "4f1c2a9e0b7d3c56",
		Owner:     "alice",
	}}
}

// TestEncodeSubmitRecordAllocs budgets the allocations of encoding a submit
// record: the record's conversion to the `any` Append takes and the frame
// itself, and nothing per field or per input.
func TestEncodeSubmitRecordAllocs(t *testing.T) {
	rec := submitRecord()
	frame, err := encode(KindJob, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > frameCap {
		t.Fatalf("submit record: %d-byte frame outgrows frameCap %d", len(frame), frameCap)
	}
	n := testing.AllocsPerRun(200, func() {
		encode(KindJob, rec)
	})
	t.Logf("submit record: %v allocs", n)
	if n > 3 {
		t.Errorf("submit record: %v allocs, budget 3", n)
	}
}

// BenchmarkEncodeRecord compares the hand-written frame encoder with
// the reflection encoding it replaces, for the records a job writes.
func BenchmarkEncodeRecord(b *testing.B) {
	sub := submitRecord()
	job := *sub.Job
	end := JobEndRecord{
		ID: job.ID, State: core.StateDone, Outputs: core.Values{"y": 8.0},
		Finished: job.Created.Add(3 * time.Millisecond), Started: job.Created.Add(time.Millisecond),
		QueueWait: core.Duration(time.Millisecond), RunTime: core.Duration(2 * time.Millisecond),
	}
	for _, r := range []struct {
		name        string
		kind        Kind
		hand, plain any
	}{
		{"job", KindJob, sub, plainJobRecord(sub)},
		{"job_end", KindJobEnd, end, plainJobEndRecord(end)},
	} {
		for _, side := range []struct {
			name string
			v    any
		}{{"AppendJSON", r.hand}, {"encoding-json", r.plain}} {
			b.Run(r.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := encode(r.kind, side.v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
