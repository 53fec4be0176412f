package rest

import (
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// SharedTransport is the process-wide tuned HTTP transport used by every
// MathCloud component that speaks the unified REST API: the client library,
// the catalogue pinger and container-to-container file staging.  Sharing one
// transport means one connection pool, so keep-alive connections opened by
// any component are reused by all of them — the per-call price of the REST
// API (Table 1) then excludes TCP and TLS handshakes on the hot path.
var SharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2: true,
	// The workloads are many small JSON calls plus occasional large file
	// transfers against a handful of containers, so a deep per-host pool
	// pays off: bursts of concurrent workflow block invocations against
	// one container all get persistent connections.
	MaxIdleConns:          512,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
	WriteBufferSize:       64 << 10,
	ReadBufferSize:        64 << 10,
}

// SharedClient is the default HTTP client over SharedTransport.  The overall
// request timeout is generous because the unified API long-polls job
// resources (?wait=...); per-request contexts bound individual calls.
var SharedClient = &http.Client{
	Transport: SharedTransport,
	Timeout:   60 * time.Second,
}

// NewHTTPClient returns an HTTP client over the shared tuned transport with
// the given overall timeout (0 = no timeout; rely on request contexts).
func NewHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: SharedTransport, Timeout: timeout}
}

// copyBufSize is the size of pooled streaming buffers.  256 KiB amortises
// syscall overhead on multi-megabyte file transfers while keeping idle pool
// cost negligible.
const copyBufSize = 256 << 10

// copier is a pooled copy buffer together with the wrappers that hide the
// copy's endpoints from io.CopyBuffer: writerOnly hides ReaderFrom and
// readerOnly hides WriterTo, so the copy goes through the pooled buffer
// instead of delegating to dst's or src's own (allocating) fast path.  An
// *os.File source has one since Go 1.22: its WriteTo copies through a
// 32 KiB buffer of its own.  The wrappers are pooled too, so that passing
// them as interfaces allocates nothing.
type copier struct {
	buf []byte
	w   writerOnly
	r   readerOnly
}

type (
	writerOnly struct{ io.Writer }
	readerOnly struct{ io.Reader }
)

var copiers = sync.Pool{
	New: func() any { return &copier{buf: make([]byte, copyBufSize)} },
}

// Copy streams src into dst through a pooled fixed-size buffer, so the heap
// cost of a transfer is O(buffer), not O(file size).  It is the streaming
// primitive of the file plane: container staging, file publishing and client
// downloads all go through it.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	c := copiers.Get().(*copier)
	c.w.Writer, c.r.Reader = dst, src
	n, err := io.CopyBuffer(&c.w, &c.r, c.buf)
	c.w.Writer, c.r.Reader = nil, nil
	copiers.Put(c)
	return n, err
}
