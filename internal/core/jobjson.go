package core

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// The job resource is the body the platform returns most often: once per
// poll, per SSE event and per journal record, and a thousand times on one
// page of a sweep's children.  This file encodes it by hand, without
// reflection, into a caller's buffer.  The output is byte for byte what
// encoding/json emits for the Job struct's field tags — field order,
// omitempty, RFC 3339 nano times, Duration text, ES6 float formatting,
// sorted map keys, HTML and U+2028/2029 escaping, U+FFFD for invalid UTF-8 —
// and FuzzJobJSON holds it to encoding/json as the oracle.  The appenders
// of its field shapes are exported for the journal's records, which embed
// the same shapes.

// JSONAppender is a value that encodes itself into a caller's buffer, such
// as Job, JobPage and the journal's job records.  rest.WriteJSON and the
// journal's frame encoder append such a value in place instead of going
// through encoding/json.
type JSONAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// AppendJSON appends the JSON encoding of the job to b.  Like encoding/json
// it fails on a NaN or infinite float and on a time whose year is outside
// [0,9999]; on error it returns nil.  A nil job encodes as null.
func (j *Job) AppendJSON(b []byte) ([]byte, error) {
	var memo TimeMemo
	return j.appendJSON(b, &memo)
}

// appendJSON is AppendJSON with a time memo, which the jobs of one page
// share.
func (j *Job) appendJSON(b []byte, memo *TimeMemo) ([]byte, error) {
	if j == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, `{"id":`...)
	b = AppendString(b, j.ID)
	b = append(b, `,"service":`...)
	b = AppendString(b, j.Service)
	b = append(b, `,"state":`...)
	b = AppendString(b, string(j.State))
	if len(j.Inputs) > 0 {
		b = append(b, `,"inputs":`...)
		if b, err = appendObject(b, j.Inputs, 0); err != nil {
			return nil, err
		}
	}
	if len(j.Outputs) > 0 {
		b = append(b, `,"outputs":`...)
		if b, err = appendObject(b, j.Outputs, 0); err != nil {
			return nil, err
		}
	}
	if j.Error != "" {
		b = append(b, `,"error":`...)
		b = AppendString(b, j.Error)
	}
	// omitempty never omits a struct, so the zero times are written too.
	// The admission times share one memo slot and the execution times the
	// other, so a page of sweep children, admitted in one instant and run
	// within a few seconds, formats few of its times in full.
	for _, f := range [...]struct {
		key  string
		t    time.Time
		slot int
	}{
		{`,"created":`, j.Created, 0},
		{`,"submitted":`, j.Submitted, 0},
		{`,"started":`, j.Started, 1},
		{`,"finished":`, j.Finished, 1},
		{`,"destruction":`, j.Destruction, 1},
	} {
		b = append(b, f.key...)
		if b, err = memo.AppendTime(b, f.slot, f.t); err != nil {
			return nil, err
		}
	}
	if j.QueueWait != 0 {
		// Duration text needs no escaping.
		b = append(b, `,"queueWait":"`...)
		b = append(append(b, time.Duration(j.QueueWait).String()...), '"')
	}
	if j.RunTime != 0 {
		b = append(b, `,"runTime":"`...)
		b = append(append(b, time.Duration(j.RunTime).String()...), '"')
	}
	if j.TraceID != "" {
		b = append(b, `,"traceId":`...)
		b = AppendString(b, j.TraceID)
	}
	if len(j.Blocks) > 0 {
		b = append(b, `,"blocks":`...)
		b = AppendStates(b, j.Blocks)
	}
	if j.Owner != "" {
		b = append(b, `,"owner":`...)
		b = AppendString(b, j.Owner)
	}
	if len(j.Log) > 0 {
		b = append(b, `,"log":`...)
		b = AppendStrings(b, j.Log)
	}
	if j.URI != "" {
		b = append(b, `,"uri":`...)
		b = AppendString(b, j.URI)
	}
	return append(b, '}'), nil
}

// MarshalJSON implements json.Marshaler with AppendJSON, so every path that
// encodes a job — responses, SSE events, the journal's JobRecord — shares
// one definition.  A type embedding Job would have this method promoted and
// would encode as the bare job; none does.
func (j *Job) MarshalJSON() ([]byte, error) { return j.AppendJSON(nil) }

// JobPage is one page of a job listing: the answer of GET on a service's
// job collection and on a sweep's children.  Keys are encoded in sorted
// order, as encoding/json writes a map.
type JobPage struct {
	Jobs   []*Job `json:"jobs"`
	Limit  int    `json:"limit"`
	Offset int    `json:"offset"`
	Total  int    `json:"total"`
}

// maxPageReserve bounds what AppendJobPage reserves from its first job's
// size.  The first job of a listing can be any size (inputs up to the
// request body limit), so an unbounded estimate times the page's length
// could ask for gigabytes; past this bound the buffer grows by doubling.
const maxPageReserve = 1 << 20

// AppendJSON appends the JSON encoding of the page to b; a nil Jobs slice
// encodes as null.  Its jobs share one time memo.
func (p *JobPage) AppendJSON(b []byte) ([]byte, error) {
	n := len(p.Jobs)
	if p.Jobs == nil {
		n = -1
	}
	var memo TimeMemo
	return AppendJobPage(b, n, p.Limit, p.Offset, p.Total, func(b []byte, i int) ([]byte, error) {
		return p.Jobs[i].appendJSON(b, &memo)
	})
}

// AppendJobPage appends a job page of n jobs, as JobPage.AppendJSON writes
// it, with appendJob writing the i-th job; n < 0 writes the jobs as null.
// Once the first job is written, b grows once to hold the rest at that
// job's size, up to maxPageReserve, so a page of a thousand alike sweep
// children is not built by doubling.
func AppendJobPage(b []byte, n, limit, offset, total int, appendJob func(b []byte, i int) ([]byte, error)) ([]byte, error) {
	b = append(b, `{"jobs":`...)
	if n < 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			start := len(b)
			var err error
			if b, err = appendJob(b, i); err != nil {
				return nil, err
			}
			if i == 0 && n > 1 {
				rest := (len(b) - start + 1) * (n - 1)
				rest += rest/8 + len(`],"limit":,"offset":,"total":}`) + 3*20
				b = slices.Grow(b, min(rest, maxPageReserve))
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	return append(b, '}'), nil
}

// AppendStrings appends a string slice (Job.Log) as encoding/json writes
// it: nil as null.
func AppendStrings(b []byte, s []string) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, v)
	}
	return append(b, ']')
}

// AppendStates appends a block-state map (Job.Blocks) as encoding/json
// writes it: keys sorted, nil as null.
func AppendStates(b []byte, m map[string]JobState) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	if len(m) == 1 {
		// One key is in order already: no key slice, no sort.
		for k, v := range m {
			b = AppendString(b, k)
			b = append(b, ':')
			b = AppendString(b, string(v))
		}
		return append(b, '}')
	}
	var arr [8]string
	for i, k := range sortedKeys(arr[:0], m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		b = AppendString(b, string(m[k]))
	}
	return append(b, '}')
}

// maxValueDepth is the nesting depth past which a parameter value is handed
// to encoding/json whole, so a cyclic value fails with its cycle error
// instead of recursing forever.
const maxValueDepth = 1000

// appendValue encodes one parameter value.  The generic JSON shapes are
// encoded here; any other Go value is encoded by encoding/json.
func appendValue(b []byte, v any, depth int) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case float64:
		return appendFloat(b, v)
	case string:
		return AppendString(b, v), nil
	case []any:
		if depth < maxValueDepth {
			return appendArray(b, v, depth+1)
		}
	case map[string]any:
		if depth < maxValueDepth {
			return appendObject(b, v, depth+1)
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, enc...), nil
}

func appendArray(b []byte, a []any, depth int) ([]byte, error) {
	if a == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range a {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendValue(b, v, depth); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// AppendValues appends v as encoding/json writes a map[string]any: keys
// sorted, nil as null.  It fails where encoding/json fails, on a NaN or
// infinite float anywhere in v; on error it returns nil.
func AppendValues(b []byte, v Values) ([]byte, error) { return appendObject(b, v, 0) }

func appendObject(b []byte, m map[string]any, depth int) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '{')
	if len(m) == 1 {
		// One key is in order already: no key slice, no sort.
		for k, v := range m {
			b = AppendString(b, k)
			b = append(b, ':')
			var err error
			if b, err = appendValue(b, v, depth); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	}
	var arr [8]string
	for i, k := range sortedKeys(arr[:0], m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendValue(b, m[k], depth); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// sortedKeys appends m's keys to keys in encoding/json's order.  Callers
// pass a small stack array, so a map of a few parameters sorts without
// allocating.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendFloat formats f as encoding/json does: the shortest representation
// that round-trips, in exponent form below 1e-6 and from 1e21, with the
// exponent's leading zero dropped (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, errors.New("core: unsupported JSON value " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendTime appends t as time.Time.MarshalJSON writes it, failing where it
// fails: a year outside [0,9999] or a zone offset of 24 hours or more.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return nil, errors.New("core: time year outside of range [0,9999]")
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		hh := b[len(b)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			return nil, errors.New("core: time zone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}

// TimeMemo holds the text of the two seconds a job encoding formatted
// last, one slot per group of a job's times: slot 0 for the admission
// times (created, submitted), slot 1 for the execution times (started,
// finished, destruction).  The jobs of one page share one.
type TimeMemo [2]secondText

// AppendTime is AppendTime, byte for byte, through the memo's slot.
func (m *TimeMemo) AppendTime(b []byte, slot int, t time.Time) ([]byte, error) {
	return m[slot].appendTime(b, t)
}

// secondText is the RFC 3339 text of one second in one location: the
// "YYYY-MM-DDTHH:MM:SS" that opens the text of every instant of that
// second there, and the zone ("Z" or "±hh:mm") that closes it.  Only the
// fraction differs between such instants.
type secondText struct {
	sec   int64
	loc   *time.Location // nil while the slot is empty
	clock [len("2006-01-02T15:04:05")]byte
	zone  [len("-07:00")]byte
	nzone int
}

// zeroTimeJSON is how AppendTime writes time.Time{}.
const zeroTimeJSON = `"0001-01-01T00:00:00Z"`

// appendTime is AppendTime, byte for byte, through the slot: a time in the
// slot's second and Location copies that second's text and formats only
// its fraction; any other is formatted in full and becomes the slot's
// second.  The zero time is a constant.
func (m *secondText) appendTime(b []byte, t time.Time) ([]byte, error) {
	loc := t.Location()
	if t.IsZero() && loc == time.UTC {
		return append(b, zeroTimeJSON...), nil
	}
	sec := t.Unix()
	if loc == m.loc && sec == m.sec {
		b = append(b, '"')
		b = append(b, m.clock[:]...)
		b = appendFraction(b, t.Nanosecond())
		b = append(b, m.zone[:m.nzone]...)
		return append(b, '"'), nil
	}
	start := len(b)
	b, err := AppendTime(b, t)
	if err != nil {
		return nil, err
	}
	// The year check in AppendTime leaves four digits of year, so the
	// clock is the text's first 19 bytes; the zone follows the fraction.
	text := b[start+1 : len(b)-1]
	rest := text[copy(m.clock[:], text):]
	if len(rest) > 0 && rest[0] == '.' {
		rest = rest[1:]
		for len(rest) > 0 && '0' <= rest[0] && rest[0] <= '9' {
			rest = rest[1:]
		}
	}
	m.nzone = copy(m.zone[:], rest)
	m.sec, m.loc = sec, loc
	return b, nil
}

// appendFraction appends nsec as RFC3339Nano's ".999999999" writes it: a
// point and up to nine digits without trailing zeros, nothing for zero.
func appendFraction(b []byte, nsec int) []byte {
	if nsec == 0 {
		return b
	}
	var frac [10]byte
	frac[0] = '.'
	for i := 9; i > 0; i-- {
		frac[i] = byte('0' + nsec%10)
		nsec /= 10
	}
	n := len(frac)
	for frac[n-1] == '0' {
		n--
	}
	return append(b, frac[:n]...)
}

const hexDigits = "0123456789abcdef"

// safeASCII marks the ASCII bytes a JSON string carries unescaped: not a
// control character, quote, backslash or one of the HTML-sensitive <, >, &.
var safeASCII = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string with encoding/json's escaping:
// quote, backslash and control characters, the HTML-sensitive <, > and &,
// and U+2028/U+2029 are escaped; each byte of invalid UTF-8 becomes U+FFFD.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = AppendStringContent(b, s)
	return append(b, '"')
}

// PlainString reports whether AppendString writes s as it is between its
// quotes: s is printable ASCII without a quote, backslash, <, > or &.
func PlainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !safeASCII[c] {
			return false
		}
	}
	return true
}

// AppendStringContent appends s escaped as AppendString does, without the
// quotes.  For a valid UTF-8 s, escaping s and then t appends the same
// bytes as escaping s+t.
func AppendStringContent(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safeASCII[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(b, s[start:]...)
}
