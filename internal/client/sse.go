package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/rest"
)

// SSE consumption: the push-based alternative to the long-poll loops of
// Wait/WaitSweep.  WaitSSE and WaitSweepSSE prefer the /events stream —
// one connection carries every state transition — and fall back to the
// long-poll floor transparently when the server does not expose streams.

// ErrEventsUnsupported reports that the server does not expose an SSE
// /events stream for the resource (older server, proxy stripping the
// stream, …).  WaitSSE/WaitSweepSSE catch it internally and degrade to
// long-polling; direct Events callers can match it with errors.Is.
var ErrEventsUnsupported = errors.New("client: server does not support event streams")

// streamClient returns an http.Client suitable for long-lived streams:
// the caller's transport without the overall response timeout, which
// would otherwise kill a healthy stream mid-watch.  Context cancellation
// still applies per request.
func (c *Client) streamClient() *http.Client {
	base := c.httpClient()
	if base.Timeout == 0 {
		return base
	}
	return &http.Client{
		Transport:     base.Transport,
		CheckRedirect: base.CheckRedirect,
		Jar:           base.Jar,
	}
}

// Events opens the SSE stream at resourceURI+"/events" and invokes fn for
// every event frame.  fn returns done=true to end the watch, or an error
// to abort it.  The stream is re-opened transparently after server idle
// closes and transient drops, resuming with Last-Event-ID so no event is
// lost while the topic's ring covers the gap (a "sync" frame arrives when
// it cannot).  Returns ErrEventsUnsupported (wrapped) when the server has
// no stream to offer — callers degrade to polling.
func (s *Service) Events(ctx context.Context, resourceURI string, fn func(events.Event) (bool, error)) error {
	c := s.client
	uri := strings.TrimRight(resourceURI, "/") + "/events"
	var lastID uint64
	streamed := false
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, uri, nil)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		req.Header.Set("Accept", "text/event-stream")
		req.Header.Set("Cache-Control", "no-cache")
		if c.Token != "" {
			req.Header.Set("Authorization", "Bearer "+c.Token)
		}
		if c.ActFor != "" {
			req.Header.Set(core.ActForHeader, c.ActFor)
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
		}
		resp, err := c.retry().Do(c.streamClient(), req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !streamed {
				return fmt.Errorf("%w: %v", ErrEventsUnsupported, err)
			}
			// The stream worked before and the connection now fails even
			// after retries: degrade rather than spin.
			return fmt.Errorf("%w: reconnect failed: %v", ErrEventsUnsupported, err)
		}
		switch {
		case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed:
			rest.Drain(resp.Body)
			return ErrEventsUnsupported
		case resp.StatusCode != http.StatusOK:
			return apiError(resp)
		case !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream"):
			rest.Drain(resp.Body)
			return ErrEventsUnsupported
		}
		streamed = true
		sc := events.NewScanner(resp.Body)
		for {
			ev, err := sc.Next()
			if err != nil {
				// io.EOF is the server's idle close; anything else is a
				// broken connection.  Either way: reconnect with resume.
				_ = resp.Body.Close()
				if err != io.EOF && ctx.Err() != nil {
					return ctx.Err()
				}
				if errors.Is(err, events.ErrFrameTooLarge) {
					// The ring would replay the same frame on every reconnect.
					return fmt.Errorf("client: %s: %w", uri, err)
				}
				break
			}
			if ev.ID > 0 {
				lastID = ev.ID
			}
			done, ferr := fn(ev)
			if done || ferr != nil {
				_ = resp.Body.Close()
				return ferr
			}
		}
		// Pause before reconnecting, jittered so a fleet of watchers
		// re-opening after a shared idle window drifts apart.
		t := time.NewTimer(rest.Jitter(c.minPoll()))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// WaitSSE waits for the job to reach a terminal state by following its
// event stream, falling back to the long-poll Wait when the server offers
// no stream.  One HTTP request replaces a poll loop: the opening frame
// carries the current snapshot and the terminal transition arrives pushed.
func (s *Service) WaitSSE(ctx context.Context, jobURI string) (*core.Job, error) {
	return follow(ctx, s, jobURI, events.TypeJob, jobDone)
}

// WaitSweepSSE waits for the whole campaign to finish by following the
// sweep's event stream (aggregate counts arrive pushed, coalesced under
// load), falling back to the long-poll WaitSweep when the server offers no
// stream.
func (s *Service) WaitSweepSSE(ctx context.Context, sweepURI string) (*core.Sweep, error) {
	return follow(ctx, s, sweepURI, events.TypeSweep, sweepDone)
}

// follow watches the resource's event stream until a frame of type typ
// decodes to a representation done reports terminal.  It long-polls
// instead when the server offers no stream, when a stream ends without a
// terminal frame, and when a frame exceeds the scanner's cap (the resource
// GET has none).
func follow[T any](ctx context.Context, s *Service, uri, typ string, done func(*T) bool) (*T, error) {
	var last *T
	err := s.Events(ctx, uri, func(ev events.Event) (bool, error) {
		if ev.Type != typ || len(ev.Data) == 0 {
			return false, nil
		}
		v := new(T)
		var err error
		if u, ok := any(v).(json.Unmarshaler); ok {
			// A job decodes itself, without json.Unmarshal's validity scan.
			err = u.UnmarshalJSON(ev.Data)
		} else {
			err = json.Unmarshal(ev.Data, v)
		}
		if err != nil {
			return false, fmt.Errorf("client: decode %s event: %w", typ, err)
		}
		last = v
		return done(v), nil
	})
	switch {
	case err == nil && last != nil && done(last):
		return last, nil
	case err != nil && !errors.Is(err, ErrEventsUnsupported) && !errors.Is(err, events.ErrFrameTooLarge):
		return nil, err
	}
	return poll(ctx, s.client, uri, done)
}
