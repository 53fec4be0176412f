package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
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
	prevOut, prevLevel := stderrLog, logLevel.Level()
	stderrLog = newBufferedLog(sink)
	SetLogger(nil)
	SetLogLevel(slog.LevelInfo)
	t.Cleanup(func() {
		stderrLog = prevOut
		SetLogger(nil)
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
	l := slog.New(newLogHandler(out, slog.LevelInfo))
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
