package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// RequestIDHeader carries the request identifier across service calls.  It
// is generated at ingress (the container's HTTP handler), stored in the
// request context, propagated by the client library, the workflow invoker
// and the catalogue probes on their outbound calls, and attached to
// structured request/job logs — so one workflow run's fan-out across
// services can be correlated end to end.
const RequestIDHeader = "X-Request-ID"

// RequestIDKey is RequestIDHeader as net/http keys a header map, for
// reading and writing the map without canonicalizing the name each time.
const RequestIDKey = "X-Request-Id"

// ctxKey is the private context key type for the request ID.
type ctxKey struct{}

// WithRequestID returns a context carrying the given request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// IsRequestIDKey reports whether key is the context key WithRequestID
// stores the request ID under, for a Context implementation that answers
// the ID itself instead of wrapping a parent in WithRequestID.
func IsRequestIDKey(key any) bool {
	_, ok := key.(ctxKey)
	return ok
}

// RequestIDFrom extracts the request ID stored in ctx, if any: the one
// WithRequestID or a Context answering IsRequestIDKey stored as a string,
// or the one the ingress (Instrument) holds.
func RequestIDFrom(ctx context.Context) (string, bool) {
	var id string
	switch v := ctx.Value(ctxKey{}).(type) {
	case string:
		id = v
	case *ingress:
		id = v.id
	}
	return id, id != ""
}

// NewRequestID returns a fresh 16-hex-digit request identifier.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failure is unrecoverable for the process, exactly as
		// in core.NewID.
		panic("obs: cannot generate request id: " + err.Error())
	}
	var out [16]byte
	hex.Encode(out[:], buf[:])
	return string(out[:])
}

// EnsureRequestID returns ctx carrying a request ID, generating one when
// absent, together with the ID in effect.
func EnsureRequestID(ctx context.Context) (context.Context, string) {
	if id, ok := RequestIDFrom(ctx); ok {
		return ctx, id
	}
	id := NewRequestID()
	return WithRequestID(ctx, id), id
}
