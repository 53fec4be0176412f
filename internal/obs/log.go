package obs

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// logLevel gates the default structured logger.  It starts at Warn so the
// per-request and per-job Info records stay silent in tests and libraries;
// the server binaries raise it to Info (SetLogLevel) to stream structured
// request/job logs.
var logLevel slog.LevelVar

// logger is the process-wide structured logger for request and job
// lifecycle records.  Every record carries the request ID when one is in
// scope, which is what makes a workflow's fan-out greppable across
// services.
var logger atomic.Pointer[slog.Logger]

// stderrLog is the buffer every record of the default logger goes through
// on its way to stderr (see bufferedLog for when it is flushed).
var stderrLog = newBufferedLog(os.Stderr)

func init() {
	logLevel.Set(slog.LevelWarn)
	SetLogger(nil)
}

// Logger returns the current structured logger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger replaces the structured logger (nil restores the default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(newLogHandler(stderrLog, &logLevel))
	}
	logger.Store(l)
}

// Log emits one record as Logger().LogAttrs does, but without the
// runtime.Callers walk LogAttrs makes for a source position: the servers'
// text handler never prints one.  It is the one way the repo emits a
// record.  A record below the logger's level costs one Enabled check: the
// attrs stay on the caller's stack.
func Log(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	h := Logger().Handler()
	if !h.Enabled(ctx, level) {
		return
	}
	r := slog.NewRecord(time.Now(), level, msg, 0)
	r.AddAttrs(attrs...)
	_ = h.Handle(ctx, r)
}

// SetLogLevel adjusts the level of the default logger.  Server binaries
// call it with slog.LevelInfo to enable request/job logging.
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// FlushLogs writes out every record the default logger still buffers.  A
// server calls it once its serve loop and deferred Closes have returned,
// and before it exits on an error.  A failed write to stderr has nowhere
// to be reported.
func FlushLogs() { _ = stderrLog.Flush() }

// Buffering bounds of the default logger: at most logBufferSize bytes, held
// for at most logFlushDelay.
const (
	logBufferSize = 64 << 10
	logFlushDelay = 100 * time.Millisecond
)

// bufferedLog batches log records so a request or a job transition does not
// pay a write(2) of its own.  The buffer is flushed when it fills, by a
// timer the first buffered record arms (logFlushDelay later), after every
// record at Warn or above (logHandler), and by Flush.  Each Write holds the
// lock for the whole record, so concurrent records never interleave.  What
// a crash can lose is the Info records of the last logFlushDelay.
type bufferedLog struct {
	mu    sync.Mutex
	out   io.Writer
	buf   *bufio.Writer
	timer *time.Timer
	armed bool
}

func newBufferedLog(w io.Writer) *bufferedLog {
	b := &bufferedLog{out: w, buf: bufio.NewWriterSize(w, logBufferSize)}
	// Created stopped; Write arms it.  As in FlushLogs, a failed write has
	// nowhere to be reported.
	b.timer = time.AfterFunc(time.Hour, func() { _ = b.Flush() })
	b.timer.Stop()
	return b
}

// Write buffers one record.
func (b *bufferedLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	if err != nil {
		// A failed write drops what was buffered, as an unbuffered write
		// would have dropped its record, and keeps the logger usable.
		b.buf.Reset(b.out)
	}
	if !b.armed && b.buf.Buffered() > 0 {
		b.armed = true
		b.timer.Reset(logFlushDelay)
	}
	return n, err
}

// Flush writes the buffered records out.
func (b *bufferedLog) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = false
	err := b.buf.Flush()
	if err != nil {
		b.buf.Reset(b.out)
	}
	return err
}

// logHandler is the default logger's text handler over a bufferedLog: the
// record format is slog's, and a record at Warn or above flushes itself
// together with every record before it.
type logHandler struct {
	slog.Handler
	out *bufferedLog
}

func newLogHandler(out *bufferedLog, level slog.Leveler) logHandler {
	return logHandler{slog.NewTextHandler(out, &slog.HandlerOptions{Level: level}), out}
}

func (h logHandler) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Level >= slog.LevelWarn {
		if ferr := h.out.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

func (h logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return logHandler{h.Handler.WithAttrs(attrs), h.out}
}

func (h logHandler) WithGroup(name string) slog.Handler {
	return logHandler{h.Handler.WithGroup(name), h.out}
}
