package obs

import (
	"encoding"
	"fmt"
	"log/slog"
	"reflect"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
)

// This file encodes the default logger's records by hand, byte for byte as
// slog.NewTextHandler with no options writes them: the time (RFC 3339 with
// milliseconds), level and message keys, then each attribute as key=value,
// a group's members under "group.key", every string quoted where slog
// quotes it.  FuzzLogRecord holds the two to each other.

// appendRecordHead appends a record's time, level and message.  A zero
// time is left out, as slog leaves it out.
func appendRecordHead(b []byte, t time.Time, level slog.Level, msg string) []byte {
	if !t.IsZero() {
		b = append(b, "time="...)
		b = appendRFC3339Millis(b, t)
		b = append(b, ' ')
	}
	b = append(b, "level="...)
	b = appendLogString(b, level.String())
	b = append(b, " msg="...)
	return appendLogString(b, msg)
}

// appendAttr appends " key=value" for a, its key under prefix (the open
// groups, each name followed by a dot), and reports whether it appended
// anything: an empty attribute and a group with nothing to show are left
// out.
func appendAttr(b []byte, a slog.Attr, prefix string) ([]byte, bool) {
	v := a.Value
	kind := v.Kind()
	if kind == slog.KindLogValuer {
		v = v.Resolve()
		kind = v.Kind()
	}
	if a.Key == "" && kind == slog.KindAny && v.Any() == nil {
		return b, false
	}
	if kind == slog.KindGroup {
		attrs := v.Group()
		if len(attrs) == 0 {
			return b, false
		}
		if a.Key != "" {
			prefix += a.Key + "."
		}
		start, some := len(b), false
		for _, m := range attrs {
			var ok bool
			if b, ok = appendAttr(b, m, prefix); ok {
				some = true
			}
		}
		if !some {
			return b[:start], false
		}
		return b, true
	}
	b = append(b, ' ')
	if prefix != "" {
		b = appendLogString(b, prefix+a.Key)
	} else {
		b = appendLogString(b, a.Key)
	}
	b = append(b, '=')
	return appendLogValue(b, kind, v), true
}

// appendLogValue appends v, resolved and not a group, of the given kind,
// as slog's text handler does.
func appendLogValue(b []byte, kind slog.Kind, v slog.Value) []byte {
	switch kind {
	case slog.KindString:
		return appendLogString(b, v.String())
	case slog.KindInt64:
		return strconv.AppendInt(b, v.Int64(), 10)
	case slog.KindUint64:
		return strconv.AppendUint(b, v.Uint64(), 10)
	case slog.KindFloat64:
		return strconv.AppendFloat(b, v.Float64(), 'g', -1, 64)
	case slog.KindBool:
		return strconv.AppendBool(b, v.Bool())
	case slog.KindDuration:
		// Duration.String is inlined and its text, at most 25 bytes,
		// stays on the stack: no allocation.
		return append(b, v.Duration().String()...)
	case slog.KindTime:
		return appendRFC3339Millis(b, v.Time())
	}
	return appendAnyValue(b, v.Any())
}

// appendAnyValue appends a KindAny value: a TextMarshaler's text, a byte
// slice quoted, anything else (an error among them) as %+v prints it.  A
// source position prints as file:line.  A method that panics prints as
// slog prints it.
func appendAnyValue(b []byte, x any) []byte {
	s, quote := anyText(x)
	if quote {
		return strconv.AppendQuote(b, s)
	}
	return appendLogString(b, s)
}

// anyText returns the text of a KindAny value, and whether it is a byte
// slice's, which is quoted unconditionally.
func anyText(x any) (s string, quote bool) {
	if src, ok := x.(*slog.Source); ok {
		return fmt.Sprintf("%s:%d", src.File, src.Line), false
	}
	defer func() {
		if r := recover(); r != nil {
			if v := reflect.ValueOf(x); v.Kind() == reflect.Pointer && v.IsNil() {
				s, quote = "<nil>", false
				return
			}
			s, quote = fmt.Sprintf("!PANIC: %v", r), false
		}
	}()
	if tm, ok := x.(encoding.TextMarshaler); ok {
		data, err := tm.MarshalText()
		if err != nil {
			return fmt.Sprintf("!ERROR:%v", err), false
		}
		return string(data), false
	}
	if bs, ok := x.([]byte); ok {
		return string(bs), true
	}
	if t := reflect.TypeOf(x); t != nil && t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
		return string(reflect.ValueOf(x).Bytes()), true
	}
	return fmt.Sprintf("%+v", x), false
}

// appendLogString appends s, quoted by strconv when slog's text handler
// quotes it.
func appendLogString(b []byte, s string) []byte {
	if needsQuoting(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// needsQuoting is slog's rule: quote the empty string, a space, '=', '"',
// a control byte, invalid UTF-8, or a non-ASCII space or unprintable rune;
// a backslash or DEL alone does not quote.
func needsQuoting(s string) bool {
	if len(s) == 0 {
		return true
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c <= ' ' || c == '=' || c == '"' {
				return true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError || unicode.IsSpace(r) || !unicode.IsPrint(r) {
			return true
		}
		i += size
	}
	return false
}

// appendRFC3339Millis is slog's time text: RFC 3339 with exactly three
// fractional digits, truncated, not rounded.
func appendRFC3339Millis(b []byte, t time.Time) []byte {
	const prefixLen = len("2006-01-02T15:04:05.000")
	n := len(b)
	// RFC3339Nano trims trailing zeros, so a tenth of a millisecond keeps
	// four digits, of which the fourth is dropped.
	t = t.Truncate(time.Millisecond).Add(time.Millisecond / 10)
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b[:n+prefixLen], b[n+prefixLen+1:]...)
}
