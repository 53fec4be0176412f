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

// plainJobRecord is a method-less copy of JobRecord: json.Marshal of one is
// the reflection encoding its AppendJSON must reproduce.  The record's job
// still encodes through core's job encoder, which FuzzJobJSON holds to
// encoding/json.
type plainJobRecord JobRecord

// fuzzRecord builds the hand-encoded job record from one fuzz input, with
// FuzzJobJSON's parameters, so its seed corpus applies unchanged.
func fuzzRecord(text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) JobRecord {
	created := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
	var inputs core.Values
	if json.Unmarshal(raw, &inputs) != nil {
		inputs = nil
	}
	job := &core.Job{
		ID: text, Service: other, State: core.StateWaiting, Inputs: inputs,
		Outputs: core.Values{"x": x, text: jobfuzz.Value(kind, x, other)},
		Created: created, Submitted: created, TraceID: other, Owner: text,
	}
	if kind&3 == 2 {
		job = nil
	}
	return JobRecord{Job: job, SweepID: other, TTL: core.Duration(d)}
}

// FuzzJournalRecord holds the hand-encoded job record to encoding/json: the
// same bytes whenever json.Marshal of its method-less copy succeeds, and an
// error exactly when it fails.  Both go through encode, so the frame of the
// AppendJSON path must equal the frame of the encoding/json path.
func FuzzJournalRecord(f *testing.F) {
	f.Add("r01-00ff", "maxima", []byte(`{"expr":"1+1","n":[1,2.5,{"a":null}]}`), 0.5, uint8(3), int64(1700000000), int64(123456789), int32(0), int64(1500))
	f.Fuzz(func(t *testing.T, text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) {
		rec := fuzzRecord(text, other, raw, x, kind, sec, nsec, zone, d)
		want, wantErr := json.Marshal(plainJobRecord(rec))
		got, gotErr := rec.AppendJSON([]byte("prefix"))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if got != nil {
				t.Fatalf("AppendJSON failed but returned %q", got)
			}
			if _, err := encode(KindJob, rec); err == nil {
				t.Fatal("encode succeeded where json.Marshal fails")
			}
			return
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant prefix%s", got, want)
		}
		hand, err := encode(KindJob, rec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		plain, err := encode(KindJob, plainJobRecord(rec))
		if err != nil {
			t.Fatalf("encode of the method-less copy: %v", err)
		}
		if !bytes.Equal(hand, plain) {
			t.Fatalf("frames differ:\n got %q\nwant %q", hand, plain)
		}
		checkFrame(t, hand, KindJob, want)
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

// BenchmarkEncodeRecord compares the hand-written frame encoder of a
// submit record with the reflection encoding it replaces.
func BenchmarkEncodeRecord(b *testing.B) {
	sub := submitRecord()
	for _, side := range []struct {
		name string
		v    any
	}{{"AppendJSON", sub}, {"encoding-json", plainJobRecord(sub)}} {
		b.Run("job/"+side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encode(KindJob, side.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
