package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a log sink the flush timer may write to while a test
// reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureDefaultLog points the default logger at a fresh buffered sink at
// Info level for the duration of a test.
func captureDefaultLog(t *testing.T) *lockedBuffer {
	t.Helper()
	sink := &lockedBuffer{}
	prevLevel := logLevel.Level()
	SetLogOutput(sink)
	SetLogLevel(slog.LevelInfo)
	t.Cleanup(func() {
		SetLogOutput(nil)
		SetLogLevel(prevLevel)
	})
	return sink
}

func TestInfoRecordsWaitForFlushOrTimer(t *testing.T) {
	sink := captureDefaultLog(t)
	start := time.Now()
	Logger().Info("first", "n", 1)
	Logger().Info("second", "n", 2)
	if got := sink.String(); got != "" && time.Since(start) < logFlushDelay {
		t.Fatalf("Info records reached the sink before any flush: %q", got)
	}
	FlushLogs()
	got := sink.String()
	if i, j := strings.Index(got, "msg=first"), strings.Index(got, "msg=second"); i < 0 || j < i {
		t.Fatalf("after FlushLogs the sink holds %q, want first then second", got)
	}

	// With nobody flushing, the timer the record arms writes it out.
	start = time.Now()
	Logger().Info("third")
	if strings.Contains(sink.String(), "msg=third") && time.Since(start) < logFlushDelay {
		t.Fatalf("Info record written before the %v flush delay", logFlushDelay)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(sink.String(), "msg=third") {
		if time.Now().After(deadline) {
			t.Fatalf("the flush timer never wrote the record out: %q", sink.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if waited := time.Since(start); waited < logFlushDelay {
		t.Fatalf("record written after %v, before the %v flush delay", waited, logFlushDelay)
	}
}

func TestWarnRecordFlushesEarlierRecordsInOrder(t *testing.T) {
	sink := captureDefaultLog(t)
	l := Logger().With("component", "test")
	l.Info("one")
	l.Info("two")
	l.Warn("three")
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("a Warn record left %d lines in the sink, want 3: %q", len(lines), lines)
	}
	for i, msg := range []string{"one", "two", "three"} {
		if !strings.Contains(lines[i], "msg="+msg) || !strings.Contains(lines[i], "component=test") {
			t.Fatalf("line %d = %q, want msg=%s with its attributes", i, lines[i], msg)
		}
	}
}

// TestConcurrentRecordsNeverInterleave writes records from several
// goroutines through more than one buffer's worth of output and requires
// every line to be one whole record, each writer's records in order.
func TestConcurrentRecordsNeverInterleave(t *testing.T) {
	sink := &lockedBuffer{}
	out := newBufferedLog(sink)
	l := slog.New(recordHandler{out: out, level: slog.LevelInfo})
	const writers, records = 8, 100
	pad := strings.Repeat("x", 300)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				l.Info("rec", "g", g, "i", i, "pad", pad)
			}
		}(g)
	}
	wg.Wait()
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^time=\S+ level=INFO msg=rec g=(\d+) i=(\d+) pad=x{300}$`)
	next := make([]int, writers)
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != writers*records {
		t.Fatalf("%d lines, want %d", len(lines), writers*records)
	}
	for _, s := range lines {
		m := line.FindStringSubmatch(s)
		if m == nil {
			t.Fatalf("torn record %q", s)
		}
		var g, i int
		fmt.Sscan(m[1], &g)
		fmt.Sscan(m[2], &i)
		if i != next[g] {
			t.Fatalf("writer %d: record %d follows %d", g, i, next[g]-1)
		}
		next[g]++
	}
}

// TestLogMatchesLogAttrs: a record emitted through Log is the line
// Logger().LogAttrs writes for it, byte for byte apart from its time.
func TestLogMatchesLogAttrs(t *testing.T) {
	sink := captureDefaultLog(t)
	ctx := context.Background()
	attrs := []slog.Attr{
		slog.String("request_id", "4f1c2a9e0b7d3c56"),
		slog.String("path", "/services/inc jobs"),
		slog.Int("status", 201),
		slog.Duration("elapsed", 1500*time.Microsecond),
		slog.String("service", "inc"),
		slog.Int("width", 1000),
	}
	Logger().LogAttrs(ctx, slog.LevelInfo, "http request", attrs...)
	Log(ctx, slog.LevelInfo, "http request", attrs...)
	Logger().LogAttrs(ctx, slog.LevelDebug, "job finished", attrs...)
	Log(ctx, slog.LevelDebug, "job finished", attrs...)
	FlushLogs()
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one record from each path at Info, got %q", lines)
	}
	stamp := regexp.MustCompile(`^time=\S+ `)
	if !stamp.MatchString(lines[0]) || stamp.ReplaceAllString(lines[0], "") != stamp.ReplaceAllString(lines[1], "") {
		t.Fatalf("records differ:\nLogAttrs %s\nLog      %s", lines[0], lines[1])
	}
}

// FuzzLogRecord holds the default logger's hand-written encoder to
// slog.NewTextHandler, byte for byte: one record at every level, with a
// fixed time, through Log's path (attrs) and through Handle (a record),
// carrying one attribute of every kind, a group, an inline group and an
// empty attribute, each with fuzzed keys and values.  Two records share a
// second, so the second goes through the memoized time text.
func FuzzLogRecord(f *testing.F) {
	f.Add("http request", "path", "status", "/services/inc/jobs", int64(201), uint64(7), 0.5, true, int64(1500*time.Microsecond), int64(1), []byte("raw"))
	f.Add("", "", "", "", int64(0), uint64(0), 0.0, false, int64(0), int64(0), []byte(nil))
	f.Add(`a "quoted" msg`, "k=v", "sp ace", `back\slash`, int64(-1), uint64(1<<63), -1e300, false, int64(-1), int64(-999), []byte{0, 1, 0xff})
	f.Add("ctl\x00\x1f\x7f", "\xff", "é", "\u00a0nbsp\u200b", int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(-1), true, int64(math.MinInt64), int64(math.MaxInt64), []byte("é"))
	f.Add("tab\tnew\nline", "ключ", "\ufffd", "ok", int64(math.MaxInt64), uint64(1), math.NaN(), true, int64(math.MaxInt64), int64(59*time.Second+999*time.Millisecond), []byte{})
	f.Add(`C:\dir name`, "del\x7f key", `a\b=c`, "naïve café", int64(7), uint64(7), 0.25, true, int64(time.Minute), int64(time.Second), []byte(`\`))
	f.Add("x", "a.b", "-", "=", int64(42), uint64(42), 1e21, false, int64(3*time.Hour+4*time.Minute+5*time.Second+6), int64(-time.Hour), []byte(`"`))
	zones := []*time.Location{time.UTC, time.FixedZone("", -(3*3600 + 30*60)), time.FixedZone("X", 14*3600)}
	f.Fuzz(func(t *testing.T, msg, k1, k2, s string, i int64, u uint64, fl float64, b bool, d, tn int64, raw []byte) {
		dur := time.Duration(d)
		stamp := time.Unix(0, tn).Add(time.Duration(u % uint64(24*time.Hour)))
		attrs := []slog.Attr{
			slog.String(k1, s),
			slog.Int64(k2, i),
			slog.Uint64(k1, u),
			slog.Float64(k2, fl),
			slog.Bool(k1, b),
			slog.Duration(k2, dur),
			slog.Time(k1, stamp.UTC()),
			slog.Any(k2, errors.New(s)),
			slog.Any(k1, raw),
			slog.Any(k2, []string{s, msg}),
			slog.Any(k1, nil),
			slog.Any("", nil),
			slog.Group(k1, slog.String(k2, s), slog.Duration(k1, -dur), slog.Group("", slog.Int(k2, int(i)))),
			slog.Group(k2),
			slog.Group("", slog.Bool(k2, !b), slog.Any("", nil)),
		}
		for _, loc := range zones {
			at := time.Date(2026, 10, 20, 7, 2, 9, 123456789, loc)
			for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.Level(int8(i)), slog.Level(-8)} {
				var want bytes.Buffer
				oracle := slog.NewTextHandler(&want, &slog.HandlerOptions{Level: slog.Level(math.MinInt)})
				var got bytes.Buffer
				h := recordHandler{out: newBufferedLog(&got), level: slog.Level(math.MinInt)}
				for n, when := range []time.Time{at, at.Add(876 * time.Millisecond), {}} {
					r := slog.NewRecord(when, level, msg, 0)
					r.AddAttrs(attrs...)
					if err := oracle.Handle(context.Background(), r); err != nil {
						t.Fatal(err)
					}
					if n%2 == 0 {
						_ = h.write(when, level, msg, attrs, nil)
					} else {
						_ = h.Handle(context.Background(), r)
					}
				}
				if err := h.out.Flush(); err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("level %v, zone %v:\nhand  %q\nslog  %q", level, loc, got.String(), want.String())
				}
			}
		}
	})
}

// BenchmarkLogRecord compares the default logger's encoder with slog's
// TextHandler on the ingress middleware's "http request" record, both
// into a discarding log.
func BenchmarkLogRecord(b *testing.B) {
	attrs := []slog.Attr{
		slog.String("request_id", "4f1c2a9e0b7d3c56"),
		slog.String("method", "POST"),
		slog.String("path", "/services/inc"),
		slog.String("route", "service"),
		slog.Int("status", 201),
		slog.Duration("elapsed", 1234567),
	}
	out := newBufferedLog(io.Discard)
	b.Run("hand", func(b *testing.B) {
		h := recordHandler{out: out, level: slog.LevelInfo}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = h.write(time.Now(), slog.LevelInfo, "http request", attrs, nil)
		}
	})
	b.Run("slog", func(b *testing.B) {
		h := slog.NewTextHandler(out, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := slog.NewRecord(time.Now(), slog.LevelInfo, "http request", 0)
			r.AddAttrs(attrs...)
			_ = h.Handle(context.Background(), r)
		}
	})
}
