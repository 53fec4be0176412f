package rest

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mathcloud/internal/obs"
)

// Retry metric families (DESIGN.md §5d): how often transient faults force a
// replay, and how much wall-clock time clients spend backed off.
var (
	metRetryAttempts = obs.NewCounter("mc_retry_attempts_total",
		"Request attempts replayed after a transient failure (503/429, gateway 502/504 on idempotent methods, or connection error).")
	metRetryBackoff = obs.NewCounter("mc_retry_backoff_seconds_total",
		"Total wall-clock time spent sleeping between retry attempts.")
)

// RetryPolicy retries transient HTTP failures with exponential backoff and
// jitter.  It is the client-side half of the platform's fault-tolerance
// contract: servers signal transient conditions with 503 + Retry-After (a
// full job queue, a shutting-down container), and every client component —
// the client library, the workflow invoker, the catalogue pinger — routes
// requests through a policy so those conditions are absorbed instead of
// surfacing as errors.
//
// A request is retried when the failure is safe to replay:
//
//   - connection-level errors (dial refused, reset, broken keep-alive) on
//     idempotent methods, or on any request whose body can be rewound
//     (req.GetBody != nil, which http.NewRequest sets for in-memory bodies);
//   - 503 Service Unavailable and 429 Too Many Requests responses, under
//     the same replayability condition, honouring the Retry-After header
//     when the server provides one;
//   - 502 Bad Gateway and 504 Gateway Timeout responses, but only for
//     idempotent methods: these are a routing tier reporting that a backend
//     replica died mid-request, so a non-idempotent request may already have
//     executed.  The gateway re-resolves replica health on every attempt, so
//     the replay lands on a live replica.
//
// Other status codes are returned to the caller untouched: they are
// deterministic answers, not faults.  Context cancellation always stops
// retrying immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 100 ms); each further
	// attempt doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff and any server Retry-After hint
	// (default 5 s), bounding worst-case latency.
	MaxDelay time.Duration
}

// DefaultRetry is the policy used when a component's Retry field is nil.
var DefaultRetry = &RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// NoRetry disables retrying: every request gets exactly one attempt.
var NoRetry = &RetryPolicy{MaxAttempts: 1}

func (p *RetryPolicy) maxAttempts() int {
	if p == nil {
		return DefaultRetry.MaxAttempts
	}
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) baseDelay() time.Duration {
	if p == nil || p.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return p.BaseDelay
}

func (p *RetryPolicy) maxDelay() time.Duration {
	if p == nil || p.MaxDelay <= 0 {
		return 5 * time.Second
	}
	return p.MaxDelay
}

// jitterRand adds the random half of each backoff delay.  math/rand's
// global source is locked internally, but a private source keeps the policy
// independent of global seeding.
var jitterRand = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(time.Now().UnixNano()))}

// backoff returns the delay before attempt n (0-based first retry):
// BaseDelay·2ⁿ capped at MaxDelay, with equal-jitter so that concurrent
// retriers spread out instead of stampeding in lockstep.
func (p *RetryPolicy) backoff(n int) time.Duration {
	d := p.baseDelay() << uint(n)
	if max := p.maxDelay(); d > max || d <= 0 {
		d = max
	}
	jitterRand.Lock()
	f := jitterRand.Float64()
	jitterRand.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// Jitter spreads a polling delay: it returns a uniformly random duration in
// [d, 3d/2).  Pollers sleeping Jitter(minPoll) instead of exactly minPoll
// desynchronize — a thousand sweep watchers started by one campaign submit
// would otherwise phase-lock into periodic request bursts against a single
// container.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	jitterRand.Lock()
	f := jitterRand.Float64()
	jitterRand.Unlock()
	return d + time.Duration(f*float64(d)/2)
}

// idempotent reports whether the method may be replayed unconditionally.
func idempotent(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodPut, http.MethodDelete:
		return true
	}
	return false
}

// Replayable reports whether req can be sent again: it has no body, or one
// that GetBody can rewind.
func Replayable(req *http.Request) bool {
	if req.Body == nil || req.Body == http.NoBody {
		return true
	}
	return req.GetBody != nil
}

// RetryAfter parses the Retry-After header of a response (delay-seconds or
// HTTP-date form), returning 0 when absent or malformed.
func RetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// retryStatus reports whether a status code signals a transient condition
// worth retrying for a request of the given method.  503/429 are the server
// explicitly refusing to act, safe to replay whenever the body can be
// rewound; 502/504 come from a gateway whose backend replica failed
// mid-request — the backend may or may not have acted, so only idempotent
// methods are replayed.
func retryStatus(code int, method string) bool {
	switch code {
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return true
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return idempotent(method)
	}
	return false
}

// Do performs req through client, retrying transient failures per the
// policy.  The returned response, if any, is the last attempt's and its
// body is open; earlier attempts' bodies are drained so their keep-alive
// connections return to the pool.
//
// Every attempt carries the same X-Request-ID: an ID already stamped on the
// request or carried by its context is reused, otherwise one is generated
// before the first attempt.  Retries are therefore correlatable — the server
// log shows N requests with one ID, not N unrelated requests.
func (p *RetryPolicy) Do(client *http.Client, req *http.Request) (*http.Response, error) {
	if client == nil {
		client = SharedClient
	}
	return p.Send(req, client.Do)
}

// Send is Do with each attempt made by send: req on the first attempt, a
// copy with a rewound body on later ones.  send may route an attempt
// elsewhere; every attempt counts against MaxAttempts all the same.
func (p *RetryPolicy) Send(req *http.Request, send func(*http.Request) (*http.Response, error)) (*http.Response, error) {
	if req.Header.Get(obs.RequestIDHeader) == "" {
		id, ok := obs.RequestIDFrom(req.Context())
		if !ok {
			id = obs.NewRequestID()
		}
		req.Header.Set(obs.RequestIDHeader, id)
	}
	attempts := p.maxAttempts()
	canReplay := Replayable(req)
	for attempt := 0; ; attempt++ {
		r := req
		if attempt > 0 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			r = req.Clone(req.Context())
			r.Body = body
		}
		resp, err := send(r)
		if err == nil && !retryStatus(resp.StatusCode, req.Method) {
			return resp, nil
		}

		last := attempt+1 >= attempts
		if err != nil {
			// A connection-level failure: replay only when it cannot
			// duplicate a non-idempotent effect, and never race a dead
			// context.
			if last || req.Context().Err() != nil || !(idempotent(req.Method) || canReplay) {
				return nil, err
			}
		} else {
			// Transient status (503/429, or 502/504 on idempotent methods):
			// replaying is safe whenever the body can be rewound.
			if last || !canReplay {
				return resp, nil
			}
			Drain(resp.Body)
		}

		delay := p.backoff(attempt)
		if resp != nil && err == nil {
			if ra := RetryAfter(resp); ra > 0 {
				if max := p.maxDelay(); ra > max {
					ra = max
				}
				delay = ra
			}
		}
		metRetryAttempts.Inc()
		metRetryBackoff.Add(delay.Seconds())
		t := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			t.Stop()
			return nil, context.Cause(req.Context())
		case <-t.C:
		}
	}
}
