package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"mathcloud/internal/rest"
)

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestScannerRejectsOversizeFrame: a stream is network input, so a frame
// past rest.MaxBodyBytes — one endless line, or many lines that add up —
// is an error, not an unbounded allocation.
func TestScannerRejectsOversizeFrame(t *testing.T) {
	oneLine := io.MultiReader(strings.NewReader("event: job\ndata: "),
		io.LimitReader(fill('x'), rest.MaxBodyBytes), strings.NewReader("\n\n"))
	line := "data: " + strings.Repeat("x", 1<<20) + "\n"
	parts := []io.Reader{strings.NewReader("event: job\n")}
	for n := 0; n <= rest.MaxBodyBytes; n += len(line) {
		parts = append(parts, strings.NewReader(line))
	}
	manyLines := io.MultiReader(append(parts, strings.NewReader("\n"))...)

	for name, stream := range map[string]io.Reader{"one line": oneLine, "many lines": manyLines} {
		ev, err := NewScanner(stream).Next()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: Next = %d data bytes, %v; want ErrFrameTooLarge", name, len(ev.Data), err)
		}
	}
}

// TestScannerFrameCapBoundary pins what the cap counts: the raw bytes of
// one frame's lines, terminators included, reset by each dispatch and by
// blank lines between frames.
func TestScannerFrameCapBoundary(t *testing.T) {
	frame := "event: job\ndata: {}\n\n" // 21 raw bytes
	scan := func(stream string, max int) *Scanner {
		return &Scanner{r: bufio.NewReaderSize(strings.NewReader(stream), 16), max: max}
	}
	sc := scan("retry: 1000\n\n"+frame+frame, len(frame))
	for i := 0; i < 2; i++ {
		if ev, err := sc.Next(); err != nil || string(ev.Data) != "{}" {
			t.Fatalf("frame %d at the cap = %+v, %v", i, ev, err)
		}
	}
	if _, err := scan(frame, len(frame)-1).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame one byte over the cap: %v, want ErrFrameTooLarge", err)
	}
}

// FuzzScanner feeds the SSE parser arbitrary bytes — a replica's stream
// as read by the gateway pump, or a server's as read by the client — and
// checks it never panics and never yields a frame over its cap.  When the
// input is JSON, its compact form must round-trip WriteEvent → Scanner
// exactly, with any ID and End flag.  Seeds: testdata/fuzz/FuzzScanner.
func FuzzScanner(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, id uint64, end bool) {
		const max = 256
		sc := &Scanner{r: bufio.NewReaderSize(bytes.NewReader(raw), 16), max: max}
		for {
			ev, err := sc.Next()
			if err != nil {
				break
			}
			if len(ev.Type)+len(ev.Data) > max {
				t.Fatalf("frame of %d type and %d data bytes passed a %d-byte cap", len(ev.Type), len(ev.Data), max)
			}
		}

		var data bytes.Buffer
		if json.Compact(&data, raw) != nil {
			return
		}
		in := Event{ID: id, Type: TypeJob, Data: data.Bytes(), End: end}
		var wire bytes.Buffer
		if err := WriteEvent(&wire, in); err != nil {
			t.Fatal(err)
		}
		out, err := NewScanner(&wire).Next()
		if err != nil || out.ID != in.ID || out.Type != in.Type || out.End != in.End || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("round trip of %+v = %+v, %v", in, out, err)
		}
	})
}
