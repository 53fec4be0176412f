// Package core defines the shared model of the MathCloud platform: job
// states, parameter values, service descriptions, job records and file
// references.  Every other component — the service container, the workflow
// system, the catalogue, the clients — speaks in terms of these types.
package core

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"mathcloud/internal/jsonschema"
)

// JobState is the lifecycle state of a computational job, as exposed by the
// unified REST API.  The paper names WAITING, RUNNING and DONE explicitly;
// ERROR and CANCELLED complete the state machine.
type JobState string

// Job lifecycle states.
const (
	// StateWaiting means the request has been accepted and queued.
	StateWaiting JobState = "WAITING"
	// StateRunning means a handler thread is executing the job.
	StateRunning JobState = "RUNNING"
	// StateDone means the job finished successfully and outputs are set.
	StateDone JobState = "DONE"
	// StateError means the job failed; the Error field explains why.
	StateError JobState = "ERROR"
	// StateCancelled means the client cancelled the job via DELETE.
	StateCancelled JobState = "CANCELLED"
)

// Terminal reports whether the state is final: no further transitions.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateError, StateCancelled:
		return true
	}
	return false
}

// Valid reports whether s is one of the defined job states.
func (s JobState) Valid() bool {
	switch s {
	case StateWaiting, StateRunning, StateDone, StateError, StateCancelled:
		return true
	}
	return false
}

// CanTransition reports whether a job may move from s to next.  The legal
// machine is WAITING→{RUNNING,CANCELLED,ERROR}, RUNNING→{DONE,ERROR,CANCELLED};
// terminal states admit no successors.
func (s JobState) CanTransition(next JobState) bool {
	if !s.Valid() || !next.Valid() || s.Terminal() {
		return false
	}
	switch s {
	case StateWaiting:
		return next == StateRunning || next == StateCancelled || next == StateError
	case StateRunning:
		return next == StateDone || next == StateError || next == StateCancelled
	}
	return false
}

// Values holds named parameter values of a request or a result, using
// encoding/json's generic representation.
type Values map[string]any

// Clone returns a shallow copy of the value map (values themselves are
// treated as immutable once attached to a job).
func (v Values) Clone() Values {
	if v == nil {
		return nil
	}
	out := make(Values, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Names returns the sorted parameter names, for deterministic iteration.
func (v Values) Names() []string {
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Duration is a time.Duration that marshals to and from the Go duration
// string syntax ("30s", "2m"), so service configurations and descriptions
// stay human-editable JSON.
type Duration time.Duration

// MarshalText implements encoding.TextMarshaler, so encoding/json writes a
// duration as a JSON string ("1.5s") without formatting it through fmt or
// re-compacting a MarshalJSON result.
func (d Duration) MarshalText() ([]byte, error) {
	return []byte(time.Duration(d).String()), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting a duration string or
// a plain number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	s := bytes.Trim(data, `"`)
	if len(s) == 0 || string(s) == "null" {
		*d = 0
		return nil
	}
	// A duration string, the common case, parses without allocating.
	parsed, err := time.ParseDuration(string(s))
	if err != nil {
		var ns int64
		if _, serr := fmt.Sscan(string(s), &ns); serr != nil {
			return fmt.Errorf("core: invalid duration %q: %v", s, err)
		}
		parsed = time.Duration(ns)
	}
	*d = Duration(parsed)
	return nil
}

// Std returns the value as a standard time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Param describes one input or output parameter of a computational web
// service: its name, human annotations and JSON Schema.
type Param struct {
	// Name identifies the parameter in request and result value maps.
	Name string `json:"name"`
	// Title is an optional human-readable label.
	Title string `json:"title,omitempty"`
	// Schema constrains values of the parameter; nil accepts anything.
	Schema *jsonschema.Schema `json:"schema,omitempty"`
	// Optional marks inputs that may be omitted from a request.
	Optional bool `json:"optional,omitempty"`
}

// ServiceDescription is the public description of a computational web
// service, returned by GET on the service resource.  It supports the
// introspection required by the workflow editor and the catalogue.
type ServiceDescription struct {
	// Name is the short identifier of the service, unique per container.
	Name string `json:"name"`
	// Title is a human-readable display name.
	Title string `json:"title,omitempty"`
	// Description explains what the service computes.
	Description string `json:"description,omitempty"`
	// Version is a free-form version string.
	Version string `json:"version,omitempty"`
	// Inputs and Outputs describe the service parameters.
	Inputs  []Param `json:"inputs"`
	Outputs []Param `json:"outputs"`
	// Tags are keywords used by the service catalogue.
	Tags []string `json:"tags,omitempty"`
	// Deadline bounds the execution (RUNNING) time of jobs of this
	// service; a job that overruns it terminates in the ERROR state.  Zero
	// means the container's default job deadline applies.
	Deadline Duration `json:"deadline,omitempty"`
	// Deterministic declares that the service is a pure function of its
	// inputs: identical inputs always produce equivalent outputs.  The
	// container may then serve repeated requests from its computation
	// cache and coalesce concurrent identical submissions into a single
	// adapter execution.  Services with side effects, randomness or
	// time-dependent results must leave this unset.
	Deterministic bool `json:"deterministic,omitempty"`
	// Batch declares that the service's adapter supports micro-batched
	// invocation (adapter.BatchInterface): the container's worker pool may
	// drain several queued jobs of this service into one adapter call,
	// amortising per-invocation overhead — one external process, one
	// solver warm-up — across the batch.  Failures isolate per job.
	Batch bool `json:"batch,omitempty"`
	// URI is the absolute resource identifier of the service; filled by
	// the container when the description is served.
	URI string `json:"uri,omitempty"`
}

// Input returns the named input parameter.
func (d *ServiceDescription) Input(name string) (Param, bool) {
	return findParam(d.Inputs, name)
}

// Output returns the named output parameter.
func (d *ServiceDescription) Output(name string) (Param, bool) {
	return findParam(d.Outputs, name)
}

func findParam(params []Param, name string) (Param, bool) {
	for _, p := range params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Validate checks the description itself for well-formedness: a non-empty
// name, uniquely named parameters and declared schemas.
func (d *ServiceDescription) Validate() error {
	if strings.TrimSpace(d.Name) == "" {
		return fmt.Errorf("core: service description: empty name")
	}
	if err := checkParams("input", d.Inputs); err != nil {
		return fmt.Errorf("core: service %q: %w", d.Name, err)
	}
	if err := checkParams("output", d.Outputs); err != nil {
		return fmt.Errorf("core: service %q: %w", d.Name, err)
	}
	return nil
}

func checkParams(kind string, params []Param) error {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if strings.TrimSpace(p.Name) == "" {
			return fmt.Errorf("%s parameter with empty name", kind)
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate %s parameter %q", kind, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// ValidateInputs checks a request's values against the declared input
// parameters: all mandatory inputs present, no unknown names, every value
// conforming to its schema.  File references are passed through untouched;
// they are resolved by the container before the adapter runs.
func (d *ServiceDescription) ValidateInputs(v Values) error {
	_, err := d.CheckInputs(v)
	return err
}

// CheckInputs is ValidateInputs that also reports what validation saw on
// the way: whether any value is a file reference, which the container must
// stage before the adapter runs.  The report is complete only when err is
// nil.
func (d *ServiceDescription) CheckInputs(v Values) (fileInputs bool, err error) {
	for _, p := range d.Inputs {
		val, ok := v[p.Name]
		if !ok {
			if p.Optional || (p.Schema != nil && p.Schema.HasDefault) {
				continue
			}
			return false, fmt.Errorf("core: service %q: missing required input %q", d.Name, p.Name)
		}
		if _, isFile := FileRefID(val); isFile {
			fileInputs = true
			continue
		}
		if p.Schema != nil {
			if err := p.Schema.Validate(val); err != nil {
				return false, fmt.Errorf("core: service %q: input %q: %w", d.Name, p.Name, err)
			}
		}
	}
	for name := range v {
		if _, ok := d.Input(name); !ok {
			return false, fmt.Errorf("core: service %q: unknown input %q", d.Name, name)
		}
	}
	return fileInputs, nil
}

// ApplyDefaults returns a copy of v with schema defaults filled in for
// absent optional inputs.
func (d *ServiceDescription) ApplyDefaults(v Values) Values {
	out := v.Clone()
	if out == nil {
		out = Values{}
	}
	for _, p := range d.Inputs {
		if _, ok := out[p.Name]; ok {
			continue
		}
		if p.Schema != nil && p.Schema.HasDefault {
			out[p.Name] = p.Schema.Default
		}
	}
	return out
}

// ValidateOutputs checks a completed job's result values against the
// declared output parameters.
func (d *ServiceDescription) ValidateOutputs(v Values) error {
	for _, p := range d.Outputs {
		val, ok := v[p.Name]
		if !ok {
			if p.Optional {
				continue
			}
			return fmt.Errorf("core: service %q: missing output %q", d.Name, p.Name)
		}
		if _, isFile := FileRefID(val); isFile {
			continue
		}
		if p.Schema != nil {
			if err := p.Schema.Validate(val); err != nil {
				return fmt.Errorf("core: service %q: output %q: %w", d.Name, p.Name, err)
			}
		}
	}
	return nil
}

// Job is the server-side record of one request, exposed through the job
// resource of the REST API.
type Job struct {
	// ID identifies the job within its container.
	ID string `json:"id"`
	// Service is the name of the service the job belongs to.
	Service string `json:"service"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// Inputs holds the request parameters; Outputs the results once DONE.
	Inputs  Values `json:"inputs,omitempty"`
	Outputs Values `json:"outputs,omitempty"`
	// Error describes the failure when State is ERROR.
	Error string `json:"error,omitempty"`
	// Created, Started and Finished are the lifecycle timeline of the job:
	// when the request was submitted (accepted into the queue), when a
	// handler began executing it, and when it reached a terminal state.
	// Submitted mirrors Created under the timeline's natural wire name;
	// "created" is kept for compatibility with pre-timeline clients.
	Created   time.Time `json:"created"`
	Submitted time.Time `json:"submitted,omitempty"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Destruction is the UWS-style destruction time of a terminal job: the
	// instant after which the container's reaper may purge the record and
	// its subordinate file resources.  Zero means the job is kept until an
	// explicit DELETE.  Set from the container's default TTL or from the
	// request's own destruction field when it reaches a terminal state.
	Destruction time.Time `json:"destruction,omitempty"`
	// QueueWait and RunTime are the derived timeline durations: how long
	// the job sat in the queue before a handler picked it up, and how long
	// it executed.  They are value fields, so job snapshots carry them at
	// no extra allocation cost.
	QueueWait Duration `json:"queueWait,omitempty"`
	RunTime   Duration `json:"runTime,omitempty"`
	// TraceID is the request identifier propagated from the ingress HTTP
	// request that created the job (X-Request-ID); outbound calls the job
	// makes — workflow block invocations, file staging — carry the same ID,
	// so a workflow's fan-out can be correlated across services.
	TraceID string `json:"traceId,omitempty"`
	// Blocks carries per-block states for composite (workflow) services,
	// so the editor can paint block status during execution.
	Blocks map[string]JobState `json:"blocks,omitempty"`
	// Owner is the authenticated identity that submitted the job, if the
	// container runs with security enabled.
	Owner string `json:"owner,omitempty"`
	// Log collects human-readable progress messages reported by the
	// adapter while the job runs.
	Log []string `json:"log,omitempty"`
	// URI is the absolute resource identifier of the job.
	URI string `json:"uri,omitempty"`
}

// Clone returns a deep-enough copy of the job record for safe concurrent
// publication (value maps are cloned; values themselves are immutable).
func (j *Job) Clone() *Job {
	out := *j
	out.Inputs = j.Inputs.Clone()
	out.Outputs = j.Outputs.Clone()
	if j.Blocks != nil {
		out.Blocks = make(map[string]JobState, len(j.Blocks))
		for k, v := range j.Blocks {
			out.Blocks[k] = v
		}
	}
	if j.Log != nil {
		out.Log = append([]string(nil), j.Log...)
	}
	return &out
}

// ActForHeader is the HTTP header carrying the delegated user identity on
// proxied requests: a trusted service (typically the workflow management
// service) sets it to the identity of the user on whose behalf it invokes
// another service.
const ActForHeader = "X-MathCloud-Act-For"

// Principal is an authenticated client identity.  Identities are strings
// such as "cn:Alice" (X.509 certificate distinguished names) or
// "openid:https://id.example/alice" (federated web identities).
type Principal struct {
	// ID is the directly authenticated identity.
	ID string
	// OnBehalfOf, when non-empty, names the user a trusted service is
	// acting for (the proxying mechanism of the security section).
	OnBehalfOf string
}

// Effective returns the identity that ownership and authorization
// decisions apply to: the delegated user if present, the caller otherwise.
func (p Principal) Effective() string {
	if p.OnBehalfOf != "" {
		return p.OnBehalfOf
	}
	return p.ID
}

// FileRefPrefix marks a string parameter value as a reference to a file
// resource rather than an inline value.  The remainder of the string is the
// file URI (absolute) or file ID (container-local).
const FileRefPrefix = "file:"

// FileRef builds a file reference value from a file identifier or URI.
func FileRef(idOrURI string) string { return FileRefPrefix + idOrURI }

// FileRefID extracts the file identifier from a parameter value if the
// value is a file reference.
func FileRefID(v any) (string, bool) {
	s, ok := v.(string)
	if !ok || !strings.HasPrefix(s, FileRefPrefix) {
		return "", false
	}
	return strings.TrimPrefix(s, FileRefPrefix), true
}

// NewID returns a fresh random identifier (32 hex digits) used for jobs and
// file resources.
func NewID() string {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failure is unrecoverable for the process.
		panic(fmt.Sprintf("core: cannot generate id: %v", err))
	}
	var out [32]byte
	hex.Encode(out[:], buf[:])
	return string(out[:])
}

// maxReplicaNameLen bounds replica names embedded in resource identifiers.
const maxReplicaNameLen = 16

// ValidReplicaName reports whether name may be used as a replica identity
// prefix inside resource IDs: 1–16 characters of [a-z0-9].  The dash is
// excluded because it separates the prefix from the random part.
func ValidReplicaName(name string) bool {
	if len(name) == 0 || len(name) > maxReplicaNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// TagID prefixes a resource identifier with its home replica ("r03-<id>").
// Affinity-tagged IDs make federated routing stateless: a gateway holding
// only the ID of a job, sweep or file knows which container replica owns it
// without any shared lookup table.  An empty replica name leaves the ID
// untouched (single-container deployments keep the bare 32-hex form).
func TagID(replica, id string) string {
	if replica == "" {
		return id
	}
	return replica + "-" + id
}

// SplitReplicaID extracts the replica prefix of an affinity-tagged resource
// ID.  It reports false for bare (untagged) IDs and for strings whose prefix
// is not a valid replica name, so pre-federation identifiers keep working.
func SplitReplicaID(id string) (replica string, ok bool) {
	i := strings.IndexByte(id, '-')
	if i <= 0 || i >= len(id)-1 {
		return "", false
	}
	if !ValidReplicaName(id[:i]) {
		return "", false
	}
	return id[:i], true
}

// NotFoundError reports a missing resource (service, job or file).
type NotFoundError struct {
	Kind string // "service", "job" or "file"
	Name string
}

// Error implements the error interface.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("core: %s %q not found", e.Kind, e.Name)
}

// ErrNotFound constructs a NotFoundError.
func ErrNotFound(kind, name string) error { return &NotFoundError{Kind: kind, Name: name} }

// IsNotFound reports whether err is a NotFoundError.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return asErr(err, &nf)
}

// ConflictError reports an operation that is invalid in the resource's
// current state, e.g. deleting a running job without cancellation support.
type ConflictError struct {
	Message string
}

// Error implements the error interface.
func (e *ConflictError) Error() string { return "core: conflict: " + e.Message }

// ErrConflict constructs a ConflictError.
func ErrConflict(format string, args ...any) error {
	return &ConflictError{Message: fmt.Sprintf(format, args...)}
}

// BadRequestError reports a malformed or invalid client request.
type BadRequestError struct {
	Message string
}

// Error implements the error interface.
func (e *BadRequestError) Error() string { return "core: bad request: " + e.Message }

// ErrBadRequest constructs a BadRequestError.
func ErrBadRequest(format string, args ...any) error {
	return &BadRequestError{Message: fmt.Sprintf(format, args...)}
}

// UnavailableError reports a transient server condition — a full job
// queue, a shutting-down container — that the client may retry after a
// delay.  It maps to HTTP 503 Service Unavailable.
type UnavailableError struct {
	Message string
	// RetryAfter is the suggested delay before retrying (0 = none).  The
	// REST layer publishes it through the Retry-After response header and
	// the client retry policy honours it.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *UnavailableError) Error() string { return "core: unavailable: " + e.Message }

// ErrUnavailable constructs an UnavailableError with a retry hint.
func ErrUnavailable(retryAfter time.Duration, format string, args ...any) error {
	return &UnavailableError{Message: fmt.Sprintf(format, args...), RetryAfter: retryAfter}
}

// ForbiddenError reports an authorization failure.
type ForbiddenError struct {
	Message string
}

// Error implements the error interface.
func (e *ForbiddenError) Error() string { return "core: forbidden: " + e.Message }

// ErrForbidden constructs a ForbiddenError.
func ErrForbidden(format string, args ...any) error {
	return &ForbiddenError{Message: fmt.Sprintf(format, args...)}
}

// asErr is a tiny local wrapper over errors.As without importing errors in
// every call site above.
func asErr[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
