// Package events is the push-based async plane of the container: a small
// event bus, depending only on package rest, that turns JobManager state
// transitions into per-topic streams, plus the Server-Sent Events wire
// codec and the one stream handler (Serve) that carry them over plain HTTP
// (DESIGN.md §5g).
//
// The design goals, in order:
//
//  1. Publishers never block.  A slow or stalled subscriber must not be
//     able to hold up a job-state transition; when a subscriber's buffer
//     fills, its queue is coalesced down to a single "state changed,
//     re-fetch" sync event instead of applying backpressure.
//  2. Unwatched topics are free.  Topic state is created on first
//     Subscribe, never on Publish, so the common case — a job nobody is
//     streaming — pays one map lookup per transition and marshals nothing.
//  3. Reconnects don't lose events.  Each topic keeps a small ring buffer
//     of recent events; a subscriber resuming with the last event ID it saw
//     gets the gap replayed, or a sync event if the ring has wrapped past
//     it.
package events

import (
	"bufio"
	"errors"
	"io"
	"strconv"
	"strings"

	"mathcloud/internal/rest"
)

// Event types carried on the bus.  The type names the JSON shape of Data:
// a decorated core.Job, core.Sweep, or service-change notice.  TypeSync
// carries no data: it tells the consumer its view may be stale and it
// should re-fetch the resource (emitted when a subscriber fell behind or a
// resumed ring no longer covers its Last-Event-ID).
const (
	TypeJob     = "job"
	TypeSweep   = "sweep"
	TypeService = "service"
	TypeSync    = "sync"
)

// Event is one bus message.  ID is a per-topic 1-based sequence number —
// it is the SSE event id, and subscribers resume by presenting the last ID
// they saw.  End marks the topic's final event (a terminal job or sweep
// state); SSE handlers close the stream after writing it.
type Event struct {
	ID   uint64
	Type string
	Data []byte
	End  bool
}

// Topic name constructors.  Topics are flat strings; these helpers keep
// the namespaces from colliding.

// JobTopic returns the topic carrying one job's state transitions.
func JobTopic(jobID string) string { return "job/" + jobID }

// SweepTopic returns the topic carrying one sweep's aggregate updates.
func SweepTopic(sweepID string) string { return "sweep/" + sweepID }

// ServiceTopic returns the per-service feed: every job transition of the
// service, sweep submissions, and deploy/undeploy notices.
func ServiceTopic(service string) string { return "service/" + service }

// endMarker is the comment line that carries Event.End on the wire.  SSE has
// no standard field for "this stream is complete", and intermediaries (the
// federation gateway) must know whether an upstream close was a terminal end
// or an idle timeout without parsing the JSON payload.  Browsers and
// spec-conforming parsers ignore comment lines, so the marker is invisible to
// EventSource while round-tripping End through WriteEvent/Scanner.
const endMarker = ": end"

// WriteEvent writes one event as an SSE frame.  Data may contain newlines;
// each line becomes its own data: field per the SSE spec.  A set End flag is
// encoded as a ": end" comment inside the frame, so the flag survives
// proxying through another SSE hop.
func WriteEvent(w io.Writer, ev Event) error {
	var b strings.Builder
	if ev.End {
		b.WriteString(endMarker)
		b.WriteByte('\n')
	}
	if ev.ID > 0 {
		b.WriteString("id: ")
		b.WriteString(strconv.FormatUint(ev.ID, 10))
		b.WriteByte('\n')
	}
	if ev.Type != "" {
		b.WriteString("event: ")
		b.WriteString(ev.Type)
		b.WriteByte('\n')
	}
	if len(ev.Data) == 0 {
		// EventSource drops frames with no data field entirely; give
		// data-less events (sync) an empty object so they are delivered.
		b.WriteString("data: {}\n")
	} else {
		for _, line := range strings.Split(string(ev.Data), "\n") {
			b.WriteString("data: ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// ErrFrameTooLarge reports an SSE frame longer than the scanner's cap.
var ErrFrameTooLarge = errors.New("events: SSE frame exceeds size cap")

// Scanner parses an SSE stream into Events.  It implements the subset of
// the EventSource grammar the container emits: id/event/data/retry fields,
// comment lines, and blank-line dispatch.  Streams come off the network, so
// one frame is capped at rest.MaxBodyBytes, the cap on a resource body.
type Scanner struct {
	r   *bufio.Reader
	max int // cap on the raw bytes of one frame
}

// NewScanner wraps an SSE response body.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReader(r), max: rest.MaxBodyBytes}
}

// readLine returns the next line without its terminator, and its raw
// length.  A line longer than budget raw bytes is ErrFrameTooLarge, after
// which the stream is unusable; a line cut short by the end of the stream
// is io.ErrUnexpectedEOF.
func (s *Scanner) readLine(budget int) (string, int, error) {
	var line strings.Builder
	for {
		chunk, err := s.r.ReadSlice('\n')
		line.Write(chunk)
		switch {
		case line.Len() > budget:
			return "", 0, ErrFrameTooLarge
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && line.Len() > 0:
			return "", 0, io.ErrUnexpectedEOF
		case err != nil:
			return "", 0, err
		}
		return strings.TrimRight(line.String(), "\r\n"), line.Len(), nil
	}
}

// Next returns the next complete event frame.  io.EOF reports the end of
// the stream; a partial trailing frame is discarded.
func (s *Scanner) Next() (Event, error) {
	var ev Event
	var data []byte
	seen := false
	size := 0 // raw bytes of the pending frame
	for {
		line, n, err := s.readLine(s.max - size)
		if err != nil {
			return Event{}, err
		}
		size += n
		if line == "" {
			if !seen {
				size = 0
				continue // stray blank line, no frame pending
			}
			ev.Data = data
			return ev, nil
		}
		if strings.HasPrefix(line, ":") {
			if line == endMarker {
				ev.End = true
				seen = true
			}
			continue // other comments are keep-alives
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			if n, perr := strconv.ParseUint(value, 10, 64); perr == nil {
				ev.ID = n
				seen = true
			}
		case "event":
			ev.Type = value
			seen = true
		case "data":
			if data != nil {
				data = append(data, '\n')
			}
			data = append(data, value...)
			seen = true
		default:
			// retry hints and unknown fields are ignored, as the SSE spec
			// requires; the Go client paces its own reconnects.
		}
	}
}
