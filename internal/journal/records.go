package journal

import (
	"time"

	"mathcloud/internal/core"
)

// Kind tags the payload type of one journal record.  Values are stable
// on-disk identifiers: never renumber, only append.
type Kind uint8

// Record kinds.
const (
	// KindJob carries a full job record: the submit image of a new job
	// (WAITING, or DONE for a cache hit born terminal) and the snapshot
	// image of an existing one.  Replay upserts by job ID, last wins.
	KindJob Kind = 1
	// KindJobStart marked the WAITING→RUNNING transition.  It is no longer
	// written — a job's end record carries its start time — but replay
	// still reads it from logs written before that.
	KindJobStart Kind = 2
	// KindJobEnd carries the terminal transition: outputs or error and the
	// job's whole timeline.
	KindJobEnd Kind = 3
	// KindJobPurge marks the destruction of a terminal job resource.
	// Replay of a purge is idempotent: purging an already-absent job (or
	// re-applying the purge after a snapshot already dropped it) is a no-op.
	KindJobPurge Kind = 4
	// KindSweep carries a whole parameter sweep: template, points and child
	// IDs.  Child inputs are re-derived at replay, so a width-N sweep costs
	// one record, not N.
	KindSweep Kind = 5
	// KindSweepPurge marks the destruction of a terminal sweep resource.
	KindSweepPurge Kind = 6
	// KindFilePut registers one file ID over a content-addressed blob.
	KindFilePut Kind = 7
	// KindFileDel releases one file ID (refcounted; the blob goes with the
	// last ID).  Replay tolerates deleting an absent ID.
	KindFileDel Kind = 8
	// KindMemoPut caches one computation result in the memo table, keyed by
	// the canonical content hash of its inputs.
	KindMemoPut Kind = 9
	// KindBaseURL records the externally visible base URL, so recovered
	// state whose outputs embed absolute file URIs stays valid across a
	// same-URL restart (and is dropped on a URL change).
	KindBaseURL Kind = 10
	// KindCatRegister and KindCatUnregister journal catalogue
	// registrations; their payloads are defined by internal/catalogue.
	KindCatRegister   Kind = 11
	KindCatUnregister Kind = 12
)

// String names the kind for logs and metrics labels.
func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindJobStart:
		return "job_start"
	case KindJobEnd:
		return "job_end"
	case KindJobPurge:
		return "job_purge"
	case KindSweep:
		return "sweep"
	case KindSweepPurge:
		return "sweep_purge"
	case KindFilePut:
		return "file_put"
	case KindFileDel:
		return "file_del"
	case KindMemoPut:
		return "memo_put"
	case KindBaseURL:
		return "base_url"
	case KindCatRegister:
		return "cat_register"
	case KindCatUnregister:
		return "cat_unregister"
	}
	return "unknown"
}

// The three records the container writes per job encode themselves: each
// AppendJSON writes byte for byte what json.Marshal writes for the struct's
// field tags, and fails where it fails (FuzzJournalRecord holds them to
// it).  Every other record goes through encoding/json.

// JobRecord is the KindJob payload: a full job image plus its durability
// envelope (owning sweep, destruction TTL).
type JobRecord struct {
	Job     *core.Job     `json:"job"`
	SweepID string        `json:"sweepId,omitempty"`
	TTL     core.Duration `json:"ttl,omitempty"`
}

// AppendJSON appends the record's JSON encoding to b; on error it returns
// nil.
func (r JobRecord) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"job":`...)
	b, err := r.Job.AppendJSON(b)
	if err != nil {
		return nil, err
	}
	return AppendJobRecordTail(b, r.SweepID, r.TTL), nil
}

// AppendJobRecordTail appends what follows the job in a JobRecord with the
// given envelope.  A writer that encodes the job itself, after the record's
// opening {"job":, closes the record with it.
func AppendJobRecordTail(b []byte, sweepID string, ttl core.Duration) []byte {
	if sweepID != "" {
		b = append(b, `,"sweepId":`...)
		b = core.AppendString(b, sweepID)
	}
	if ttl != 0 {
		b = append(b, `,"ttl":`...)
		b = core.AppendString(b, ttl.Std().String())
	}
	return append(b, '}')
}

// JobStartRecord is the KindJobStart payload, read from old logs only.
type JobStartRecord struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

// JobEndRecord is the KindJobEnd payload: the terminal state and the
// timeline a replay cannot rebuild from the submit image.  Records written
// before the timeline fields existed decode with them zero.
type JobEndRecord struct {
	ID          string                   `json:"id"`
	State       core.JobState            `json:"state"`
	Outputs     core.Values              `json:"outputs,omitempty"`
	Error       string                   `json:"error,omitempty"`
	Finished    time.Time                `json:"finished"`
	Destruction time.Time                `json:"destruction,omitempty"`
	Started     time.Time                `json:"started,omitempty"`
	QueueWait   core.Duration            `json:"queueWait,omitempty"`
	RunTime     core.Duration            `json:"runTime,omitempty"`
	Log         []string                 `json:"log,omitempty"`
	Blocks      map[string]core.JobState `json:"blocks,omitempty"`
}

// AppendJSON appends the record's JSON encoding to b; on error it returns
// nil.  omitempty never omits a time, so every time field is written.
func (r JobEndRecord) AppendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"id":`...)
	b = core.AppendString(b, r.ID)
	b = append(b, `,"state":`...)
	b = core.AppendString(b, string(r.State))
	if len(r.Outputs) > 0 {
		b = append(b, `,"outputs":`...)
		if b, err = core.AppendValues(b, r.Outputs); err != nil {
			return nil, err
		}
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = core.AppendString(b, r.Error)
	}
	for _, f := range [...]struct {
		key string
		t   time.Time
	}{
		{`,"finished":`, r.Finished},
		{`,"destruction":`, r.Destruction},
		{`,"started":`, r.Started},
	} {
		b = append(b, f.key...)
		if b, err = core.AppendTime(b, f.t); err != nil {
			return nil, err
		}
	}
	if r.QueueWait != 0 {
		b = append(b, `,"queueWait":`...)
		b = core.AppendString(b, r.QueueWait.Std().String())
	}
	if r.RunTime != 0 {
		b = append(b, `,"runTime":`...)
		b = core.AppendString(b, r.RunTime.Std().String())
	}
	if len(r.Log) > 0 {
		b = append(b, `,"log":`...)
		b = core.AppendStrings(b, r.Log)
	}
	if len(r.Blocks) > 0 {
		b = append(b, `,"blocks":`...)
		b = core.AppendStates(b, r.Blocks)
	}
	return append(b, '}'), nil
}

// JobPurgeRecord is the KindJobPurge payload.
type JobPurgeRecord struct {
	ID string `json:"id"`
}

// AppendJSON appends the record's JSON encoding to b.
func (r JobPurgeRecord) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = core.AppendString(b, r.ID)
	return append(b, '}'), nil
}

// SweepRecord is the KindSweep payload: one record for the whole campaign.
// Child inputs are re-derived from Template+Points at replay; only children
// whose state diverged (finished, born-DONE) have records of their own.  A
// child that started and never ended has none: replay re-derives it from
// Template+Points as if it had never run.
type SweepRecord struct {
	ID       string        `json:"id"`
	Service  string        `json:"service"`
	Owner    string        `json:"owner,omitempty"`
	TraceID  string        `json:"traceId,omitempty"`
	Created  time.Time     `json:"created"`
	Width    int           `json:"width"`
	ChildIDs []string      `json:"childIds"`
	Template core.Values   `json:"template,omitempty"`
	Points   []core.Values `json:"points"`
	TTL      core.Duration `json:"ttl,omitempty"`
}

// SweepPurgeRecord is the KindSweepPurge payload.
type SweepPurgeRecord struct {
	ID string `json:"id"`
}

// FilePutRecord is the KindFilePut payload: one file ID over a blob that is
// expected to exist at sha256-<digest> under the store directory.  Replay
// validates existence, so a blob lost with the page cache degrades to a
// missing-file error rather than a dangling reference.
type FilePutRecord struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
	Owner  string `json:"owner,omitempty"`
}

// FileDelRecord is the KindFileDel payload.
type FileDelRecord struct {
	ID string `json:"id"`
}

// MemoPutRecord is the KindMemoPut payload.  Key is the canonical content
// hash of (service, version, inputs); recovered entries re-validate cheaply
// against the FileStore — every file reference in Outputs must resolve —
// before re-entering the cache.
type MemoPutRecord struct {
	Key     string      `json:"key"`
	Service string      `json:"service"`
	JobID   string      `json:"jobId"`
	Outputs core.Values `json:"outputs"`
}

// BaseURLRecord is the KindBaseURL payload.
type BaseURLRecord struct {
	URL string `json:"url"`
}
