package container

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"mathcloud/internal/core"
	"mathcloud/internal/jobfuzz"
	"mathcloud/internal/journal"
)

// TestJobPhaseSize pins the size of a phase, which every transition of a
// job allocates: at most 144 bytes, against the 296 of a whole core.Job.
func TestJobPhaseSize(t *testing.T) {
	size := unsafe.Sizeof(jobPhase{})
	t.Logf("jobPhase: %d bytes (core.Job: %d)", size, unsafe.Sizeof(core.Job{}))
	if size > 144 {
		t.Fatalf("jobPhase is %d bytes, budget 144", size)
	}
}

// FuzzJobRecordJSON holds the container's job bodies, which core's job
// encoder writes from the job that a record's request and phase build on
// the stack, to json.Marshal of that core.Job: for the body of a job
// resource (uri from the prefix), a page of jobs and the journal's job
// record.  The phases are those of a live job through
// every transition (WAITING, RUNNING, each Progress and SetBlockState, its
// landing), of a job born DONE from the cache, and of replayed jobs, whose
// IDs need not be plain and whose submitted time and destruction time are
// their own.
func FuzzJobRecordJSON(f *testing.F) {
	f.Add("r01-00ff", "maxima", []byte(`{"expr":"1+1","n":[1,2.5,{"a":null}]}`), 0.5, uint8(3), int64(1700000000), int64(123456789), int32(0), int64(1500))
	c, err := New(Options{Workers: 1, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	jm := c.jobs
	f.Fuzz(func(t *testing.T, text, other string, raw []byte, x float64, kind uint8, sec, nsec int64, zone int32, d int64) {
		created := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
		var inputs core.Values
		if json.Unmarshal(raw, &inputs) != nil {
			inputs = nil
		}
		outputs := core.Values{"x": x, text: jobfuzz.Value(kind, x, other)}
		ttl := time.Duration(d)
		owner := ""
		if kind&2 != 0 {
			owner = other
		}
		req := jobRequest{
			id: text, service: other, owner: owner, traceID: text,
			inputs: inputs, created: created, submitted: created,
			idPlain: core.PlainString(text), tracePlain: core.PlainString(text),
		}
		to := [...]core.JobState{core.StateDone, core.StateError, core.StateCancelled}[kind%3]

		// A live job through every transition.
		rec := newJobRecord(req)
		rec.ttl = ttl
		imgs := []jobImage{{rec, rec.phase.Load()}}
		snap := func() { imgs = append(imgs, jobImage{rec, rec.phase.Load()}) }
		jm.queue.waiting.Add(1)
		metJobsWaiting.Add(1)
		rj := jm.beginJob(rec, context.Background(), 0)
		snap()
		rj.Progress(text)
		snap()
		rj.Progress(other)
		snap()
		rj.SetBlockState(text, core.JobState(other))
		snap()
		rj.SetBlockState("b", core.StateDone)
		snap()
		jm.land(rec, core.StateRunning, to, outputs, other)
		snap()
		rj.cleanup()

		// A job born DONE from the cache.
		hit := jm.publishCachedJob(context.Background(), req, outputs, ttl)
		jm.destroy(hit.id)
		imgs = append(imgs, jobImage{hit, hit.phase.Load()})

		// Replayed jobs: terminal, with a destruction time that Finished +
		// ttl gives or one of its own, and re-driven (WAITING).
		state := to
		if kind&1 != 0 {
			state = core.StateWaiting
		}
		job := &core.Job{
			ID: other, Service: text, State: state, Inputs: inputs, Outputs: outputs, Error: text,
			Created: created, Submitted: created.Add(time.Duration(d)),
			Started: created.Add(time.Duration(d / 2)), Finished: created.Add(time.Duration(d)),
			QueueWait: core.Duration(d / 2), RunTime: core.Duration(-d / 3),
			TraceID: other, Owner: text, Log: []string{other},
			Blocks: map[string]core.JobState{other: core.StateRunning},
		}
		switch {
		case state == core.StateWaiting:
		case kind&4 != 0 && ttl > 0:
			job.Destruction = job.Finished.Add(ttl)
		default:
			job.Destruction = time.Unix(sec/7, 0).UTC()
		}
		replayed := jm.restoredRecord(job, ttl)
		imgs = append(imgs, jobImage{replayed, replayed.phase.Load()})
		// The replayed job encodes as the journaled one did.
		want, wantErr := json.Marshal(job)
		var e core.JobEncoder
		got, gotErr := replayed.appendJSON(nil, &e, replayed.phase.Load())
		if (gotErr != nil) != (wantErr != nil) || wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("replayed job = %s, %v; journaled %s, %v", got, gotErr, want, wantErr)
		}

		prefix := other + "/jobs/"
		var page []*core.Job
		for i, img := range imgs {
			built := img.rec.build(img.p)
			if view := img.rec.image(img.p); !reflect.DeepEqual(*view, built) {
				t.Fatalf("image %d: view %+v, built %+v", i, *view, built)
			}
			for _, pre := range []string{"", prefix} {
				want := built
				if pre != "" {
					want.URI = pre + want.ID
				}
				wantB, wantErr := json.Marshal(&want)
				e := core.NewJobEncoder(pre)
				got, gotErr := img.rec.appendJSON(nil, &e, img.p)
				if (gotErr != nil) != (wantErr != nil) || wantErr == nil && !bytes.Equal(got, wantB) {
					t.Fatalf("image %d, prefix %q: %s, %v; want %s, %v", i, pre, got, gotErr, wantB, wantErr)
				}
			}
			sweepID := ""
			if img.rec.sweep != nil {
				sweepID = img.rec.sweep.id
			}
			wantB, wantErr := json.Marshal(journal.JobRecord{Job: &built, SweepID: sweepID, TTL: core.Duration(img.rec.ttl)})
			got, gotErr := jobLogRecord(img).AppendJSON(nil)
			if (gotErr != nil) != (wantErr != nil) || wantErr == nil && !bytes.Equal(got, wantB) {
				t.Fatalf("image %d journal record: %s, %v; want %s, %v", i, got, gotErr, wantB, wantErr)
			}
			built.URI = prefix + built.ID
			page = append(page, &built)
		}
		wantB, wantErr := json.Marshal(&core.JobPage{Jobs: page, Limit: int(kind), Offset: int(zone), Total: len(page)})
		got, gotErr = (&jobPage{jobs: imgs, limit: int(kind), offset: int(zone), total: len(imgs), prefix: prefix}).AppendJSON(nil)
		if (gotErr != nil) != (wantErr != nil) || wantErr == nil && !bytes.Equal(got, wantB) {
			t.Fatalf("page: %s, %v; want %s, %v", got, gotErr, wantB, wantErr)
		}
		empty, err := (&jobPage{prefix: prefix}).AppendJSON(nil)
		if err != nil || string(empty) != `{"jobs":null,"limit":0,"offset":0,"total":0}` {
			t.Fatalf("empty page = %s, %v", empty, err)
		}
	})
}
