package events

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"mathcloud/internal/rest"
)

// Stream describes one SSE endpoint for Serve.  The container serves its
// job, sweep and service streams with it, and the federation gateway serves
// the same three from its own bus, so the wire contract lives here once:
// subscribe-then-snapshot, one header set, a retry hint, sync frames
// re-expanded to full representations, and an idle close that the client
// answers by resuming with Last-Event-ID.
type Stream struct {
	Bus   *Bus
	Topic string
	// Type is the SSE event type of the opening frame and of re-expanded
	// sync frames.
	Type string
	// Attach, when set, runs after the subscription and before the
	// snapshot, and returns what detaches it again.  The gateway starts its
	// upstream pump here, so the pump relays from the moment the snapshot
	// is taken.
	Attach func() (release func())
	// Snapshot returns the resource's current representation, the topic
	// sequence it covers, and whether it is terminal.  It supplies the
	// opening frame and re-expands every sync event.  A representation
	// that covers sequence n is no older than any event up to n, so Serve
	// drops queued events at or below it rather than send a frame older
	// than one already sent; 0 covers nothing.  Nil for feeds, which open
	// with Hello and forward sync frames as they are.
	Snapshot func() (data []byte, covered uint64, end bool, err error)
	// Hello is the opening frame's data when Snapshot is nil.
	Hello []byte
	// Idle closes a stream that carried no event for this long, and is
	// advertised as Wait-Max; 0 keeps streams open until the client leaves.
	Idle time.Duration
}

// LastEventID extracts the SSE resume position.  EventSource sends the
// Last-Event-ID header on reconnect; curl users can pass ?lastEventId=
// instead.  Anything unparsable means a fresh subscription.
func LastEventID(r *http.Request) uint64 {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("lastEventId")
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Serve runs one SSE stream: it subscribes, attaches, takes the opening
// snapshot, writes the headers and the opening frame, then relays bus
// events until the topic ends, the idle window expires, the bus closes or
// the client disconnects.  The subscription precedes the snapshot, so a
// racing transition is never missed, and it is sent twice only when the
// snapshot does not say what it covers; the snapshot precedes the headers,
// so a failed one is answered with its error status.
func Serve(w http.ResponseWriter, r *http.Request, s Stream) {
	if r.Method != http.MethodGet {
		rest.MethodNotAllowed(w, http.MethodGet)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		rest.WriteError(w, errors.New("events: response writer does not support streaming"))
		return
	}
	sub := s.Bus.Subscribe(s.Topic, LastEventID(r))
	defer sub.Close()
	if s.Attach != nil {
		defer s.Attach()()
	}
	// The opening frame carries the subscription sequence, or the one its
	// snapshot covers if that is later, so a reconnect resumes from here.
	open := Event{ID: sub.Seq, Type: s.Type, Data: s.Hello}
	var covered uint64
	if s.Snapshot != nil {
		var err error
		if open.Data, covered, open.End, err = s.Snapshot(); err != nil {
			rest.WriteError(w, err)
			return
		}
		open.ID = max(open.ID, covered)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	if s.Idle > 0 {
		h.Set(rest.WaitMaxHeader, s.Idle.String())
	}
	w.WriteHeader(http.StatusOK)
	// Pace EventSource reconnects after idle closes so they don't
	// degenerate into a tight retry loop.
	if _, err := io.WriteString(w, "retry: 1000\n\n"); err != nil {
		return
	}
	if WriteEvent(w, open) != nil {
		return
	}
	fl.Flush()
	if open.End {
		return
	}

	var timer *time.Timer
	var timeout <-chan time.Time
	if s.Idle > 0 {
		timer = time.NewTimer(s.Idle)
		defer timer.Stop()
		timeout = timer.C
	}
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return // bus shut down
			}
			if ev.ID <= covered {
				continue // queued before the last snapshot sent, which covers it
			}
			if ev.Type == TypeSync && s.Snapshot != nil {
				// The subscriber fell behind (or resumed past the ring):
				// send a fresh snapshot instead of the data-less marker.
				data, seq, end, err := s.Snapshot()
				if err != nil {
					return
				}
				covered = max(covered, seq)
				ev = Event{ID: max(ev.ID, seq), Type: s.Type, Data: data, End: ev.End || end}
			}
			if WriteEvent(w, ev) != nil {
				return
			}
			fl.Flush()
			if ev.End {
				return
			}
			if timer != nil {
				// Non-blocking drain: correct under both the pre- and
				// post-Go 1.23 timer channel semantics.
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(s.Idle)
			}
		case <-timeout:
			// Idle cap reached (the SSE analogue of the long-poll window):
			// end the stream cleanly; EventSource reconnects with
			// Last-Event-ID and resumes from the topic ring.
			return
		case <-ctx.Done():
			return
		}
	}
}
