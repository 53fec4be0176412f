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

// logOut is the buffer every record of the default logger goes through on
// its way to stderr, or to the writer SetLogOutput names (see bufferedLog
// for when it is flushed).
var logOut atomic.Pointer[bufferedLog]

func init() {
	logOut.Store(newBufferedLog(os.Stderr))
	logLevel.Set(slog.LevelWarn)
	SetLogger(nil)
}

// Logger returns the current structured logger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger replaces the structured logger (nil restores the default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(recordHandler{out: logOut.Load(), level: &logLevel})
	}
	logger.Store(l)
}

// Log emits one record as Logger().LogAttrs does, but without the
// runtime.Callers walk LogAttrs makes for a source position: the servers'
// text handler never prints one.  It is the one way the repo emits a
// record.  A record below the logger's level costs one Enabled check: the
// attrs stay on the caller's stack.  The default logger's record is
// encoded by hand (logrecord.go) without a slog.Record; any other logger's
// handler gets one.
func Log(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	h := Logger().Handler()
	if rh, ok := h.(recordHandler); ok {
		if level >= rh.level.Level() {
			_ = rh.write(time.Now(), level, msg, attrs, nil)
		}
		return
	}
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
func FlushLogs() { _ = logOut.Load().Flush() }

// SetLogOutput points the default logger at w (nil restores stderr),
// after flushing what it buffered for its previous output.  A logger set
// with SetLogger stays in place.
func SetLogOutput(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	prev := logOut.Swap(newBufferedLog(w))
	if _, ok := Logger().Handler().(recordHandler); ok {
		SetLogger(nil)
	}
	_ = prev.Flush()
}

// Buffering bounds of the default logger: at most logBufferSize bytes, held
// for at most logFlushDelay.
const (
	logBufferSize = 64 << 10
	logFlushDelay = 100 * time.Millisecond
)

// bufferedLog batches log records so a request or a job transition does not
// pay a write(2) of its own.  The buffer is flushed when it fills, by a
// timer the first buffered record arms (logFlushDelay later), after every
// record at Warn or above (recordHandler, textHandler), and by Flush.  Each
// Write holds the lock for the whole record, so concurrent records never
// interleave.  What a crash can lose is the Info records of the last
// logFlushDelay.
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

// recordHandler is the default logger's handler: slog's TextHandler
// format, encoded by hand (logrecord.go) into a bufferedLog, where a record
// at Warn or above flushes itself together with every record before it.
// A handler derived with attributes or a group is slog's TextHandler over
// the same log (textHandler).
type recordHandler struct {
	out   *bufferedLog
	level slog.Leveler
}

func (h recordHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

func (h recordHandler) Handle(_ context.Context, r slog.Record) error {
	return h.write(r.Time, r.Level, r.Message, nil, &r)
}

// write encodes one record, with the attrs of r when r is not nil, into a
// pooled buffer and hands it to the log.  The encoding runs outside the
// log's lock: an attribute's String, Error or LogValue method may log.
func (h recordHandler) write(t time.Time, level slog.Level, msg string, attrs []slog.Attr, r *slog.Record) error {
	bp := recordBufs.Get().(*[]byte)
	b := appendRecordHead((*bp)[:0], t, level, msg)
	if r != nil {
		r.Attrs(func(a slog.Attr) bool {
			b, _ = appendAttr(b, a, "")
			return true
		})
	}
	for _, a := range attrs {
		b, _ = appendAttr(b, a, "")
	}
	b = append(b, '\n')
	_, err := h.out.Write(b)
	if cap(b) <= maxPooledRecord {
		*bp = b
		recordBufs.Put(bp)
	}
	if level >= slog.LevelWarn {
		if ferr := h.out.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

func (h recordHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	return h.text().WithAttrs(attrs)
}

func (h recordHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return h.text().WithGroup(name)
}

// text is slog's TextHandler over h's log and level.
func (h recordHandler) text() textHandler {
	return textHandler{slog.NewTextHandler(h.out, &slog.HandlerOptions{Level: h.level}), h.out}
}

// recordBufs pools the buffers records are encoded into.  A buffer that
// grew past maxPooledRecord goes to the garbage collector instead.
var recordBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledRecord = 16 << 10

// textHandler is slog's TextHandler over a bufferedLog, for the handlers
// the default logger derives: a record at Warn or above flushes itself
// together with every record before it, as the default's do.
type textHandler struct {
	slog.Handler
	out *bufferedLog
}

func (h textHandler) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Level >= slog.LevelWarn {
		if ferr := h.out.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

func (h textHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return textHandler{h.Handler.WithAttrs(attrs), h.out}
}

func (h textHandler) WithGroup(name string) slog.Handler {
	return textHandler{h.Handler.WithGroup(name), h.out}
}
