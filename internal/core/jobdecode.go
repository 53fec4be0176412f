package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strconv"
	"time"
	"unicode/utf8"
)

// This file is the reading half of jobjson.go: it decodes the job and page
// bodies every client, the WMS and journal replay read, without reflection
// and without encoding/json's validating pre-scan.  It is exact by
// construction.  The fast path takes only what it decodes exactly as
// encoding/json would: a zero target; the exact lower-camel keys AppendJSON
// writes, none repeated; strings with no escape, control byte or invalid
// UTF-8; numbers in the JSON grammar; nesting under maxValueDepth.  Parameter
// values decode to encoding/json's generic shapes, and times and durations
// through the UnmarshalJSON methods encoding/json itself calls.  Anything
// else — a case-variant or unknown key, a duplicate, an escape, a null where
// AppendJSON never writes one, a type mismatch, a target holding data (which
// encoding/json merges into) — declines, and the body is decoded again by
// encoding/json into a method-less copy of the type.  FuzzJobDecode holds
// the two paths to each other.

// plainJob and plainJobPage are Job and JobPage without their methods: the
// shapes encoding/json decodes by reflection.
type (
	plainJob     Job
	plainJobPage JobPage
)

// UnmarshalJSON implements json.Unmarshaler with the hand-written decoder,
// falling back to encoding/json where it declines; either way the job ends
// as json.Unmarshal into the plain struct would leave it.  A type embedding
// Job would have this method promoted and would decode as the bare job;
// none does.
func (j *Job) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	if j.isZero() {
		d := jobDecoder{data: data}
		if d.job(j) && d.end() {
			return nil
		}
		*j = Job{}
	}
	// Named Job so that encoding/json's errors name the type as they did
	// before Job had this method.
	type Job plainJob
	return json.Unmarshal(data, (*Job)(j))
}

// UnmarshalJSON implements json.Unmarshaler for a page as Job's does for a
// job; the jobs of a page share their service string and their parameter
// names.  A type embedding JobPage would have
// this method promoted; none does.
func (p *JobPage) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	if p.Jobs == nil && p.Limit == 0 && p.Offset == 0 && p.Total == 0 {
		d := jobDecoder{data: data}
		if d.page(p) && d.end() {
			return nil
		}
		p.Jobs, p.Limit, p.Offset, p.Total = nil, 0, 0, 0
	}
	type JobPage plainJobPage
	return json.Unmarshal(data, (*JobPage)(p))
}

// DecodeValues decodes data, one JSON object and nothing after it but
// whitespace, into the Values json.Unmarshal would leave in a nil Values,
// with the job decoder's fast path.  It reports false where that path
// declines (see above) and for any other body; the caller then decodes
// data with encoding/json.  No string of the result aliases data.
func DecodeValues(data []byte) (Values, bool) {
	d := jobDecoder{data: data}
	m, ok := d.object(1)
	if !ok || !d.end() {
		return nil, false
	}
	return m, true
}

// isZero reports whether j is Job's zero value, the only target the fast
// path decodes into.
func (j *Job) isZero() bool {
	var zero time.Time
	return j.ID == "" && j.Service == "" && j.State == "" && j.Inputs == nil && j.Outputs == nil &&
		j.Error == "" && j.Created == zero && j.Submitted == zero && j.Started == zero &&
		j.Finished == zero && j.Destruction == zero && j.QueueWait == 0 && j.RunTime == 0 &&
		j.TraceID == "" && j.Blocks == nil && j.Owner == "" && j.Log == nil && j.URI == ""
}

// jobDecoder is one fast-path decode.  Its methods return false to decline.
type jobDecoder struct {
	data []byte
	i    int
	// service is the last service string decoded: the next job naming the
	// same service shares it.
	service string
	// keys are recently decoded parameter names, shared the same way.
	keys  [8]string
	nkeys int
}

// ws skips JSON whitespace and returns the next byte, 0 at the end.
func (d *jobDecoder) ws() byte {
	for ; d.i < len(d.data); d.i++ {
		switch c := d.data[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat skips whitespace and consumes c if it comes next.
func (d *jobDecoder) eat(c byte) bool {
	if d.ws() == c && c != 0 {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *jobDecoder) end() bool {
	d.ws()
	return d.i == len(d.data)
}

// members decodes an object, calling member with each key once the
// decoder stands at the key's value.
func (d *jobDecoder) members(member func(key []byte) bool) bool {
	return d.sequence('{', '}', func() bool {
		k, ok := d.str()
		return ok && d.eat(':') && member(k)
	})
}

// sequence decodes the items of an object or an array between open and
// close, separated by commas, calling item at each.
func (d *jobDecoder) sequence(open, close byte, item func() bool) bool {
	if !d.eat(open) {
		return false
	}
	if d.eat(close) {
		return true
	}
	for item() {
		switch d.ws() {
		case ',':
			d.i++
		case close:
			d.i++
			return true
		default:
			return false
		}
	}
	return false
}

// str consumes a string token and returns its content.  A string the fast
// path cannot take verbatim — an escape, a control byte, invalid UTF-8 —
// declines.
func (d *jobDecoder) str() ([]byte, bool) {
	if d.ws() != '"' {
		return nil, false
	}
	start := d.i + 1
	n := bytes.IndexByte(d.data[start:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.data[start : start+n]
	if !plainASCII(s) {
		for _, c := range s {
			if c == '\\' || c < 0x20 {
				return nil, false
			}
		}
		if !utf8.Valid(s) {
			return nil, false
		}
	}
	d.i = start + n + 1
	return s, true
}

// plainASCII reports whether s is printable ASCII without a backslash,
// eight bytes at a time.
func plainASCII(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		x := binary.LittleEndian.Uint64(s)
		bs := x ^ ('\\' * ones)
		// A set high bit marks a byte below 0x20, a backslash or a byte
		// from 0x80 up.
		if (x-0x20*ones)&^x&highs|(bs-ones)&^bs&highs|x&highs != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// number consumes a number token in the JSON grammar and returns its text.
func (d *jobDecoder) number() ([]byte, bool) {
	b, start := d.data, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return nil, false
		}
	}
	d.i = i
	return b[start:i], true
}

// digits returns the index past the digits from b[i], -1 if there are none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// literal consumes lit (true, false or null) if it comes next.
func (d *jobDecoder) literal(lit string) bool {
	if len(d.data)-d.i >= len(lit) && string(d.data[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// value decodes one parameter value into encoding/json's generic shapes.
func (d *jobDecoder) value(depth int) (any, bool) {
	switch c := d.ws(); {
	case c == '"':
		s, ok := d.str()
		return string(s), ok
	case c == '-' || '0' <= c && c <= '9':
		num, ok := d.number()
		if !ok {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(num), 64)
		return f, err == nil
	case c == '{':
		m, ok := d.object(depth)
		return m, ok
	case c == '[':
		return d.array(depth)
	case c == 't' && d.literal("true"):
		return true, true
	case c == 'f' && d.literal("false"):
		return false, true
	case c == 'n' && d.literal("null"):
		return nil, true
	}
	return nil, false
}

func (d *jobDecoder) array(depth int) ([]any, bool) {
	a := []any{}
	ok := depth < maxValueDepth && d.sequence('[', ']', func() bool {
		v, ok := d.value(depth + 1)
		a = append(a, v)
		return ok
	})
	return a, ok
}

// object decodes a parameter object; a repeated key keeps its last value,
// as encoding/json's map decoding does.
func (d *jobDecoder) object(depth int) (map[string]any, bool) {
	m := map[string]any{}
	ok := depth < maxValueDepth && d.members(func(k []byte) bool {
		v, ok := d.value(depth + 1)
		m[d.key(k)] = v
		return ok
	})
	return m, ok
}

// key returns k as a string, shared with an earlier key of the same text.
func (d *jobDecoder) key(k []byte) string {
	for _, s := range d.keys[:min(d.nkeys, len(d.keys))] {
		if s == string(k) {
			return s
		}
	}
	s := string(k)
	d.keys[d.nkeys%len(d.keys)] = s
	d.nkeys++
	return s
}

// state returns the state text, without allocating for the five states.
func state(s []byte) JobState {
	for _, st := range [...]JobState{StateDone, StateRunning, StateWaiting, StateError, StateCancelled} {
		if string(st) == string(s) {
			return st
		}
	}
	return JobState(s)
}

// job decodes one job object into the zero job j.
func (d *jobDecoder) job(j *Job) bool {
	var seen uint32
	return d.members(func(k []byte) bool {
		var field int
		var ok bool
		switch string(k) {
		case "id":
			field, ok = 0, d.text(&j.ID)
		case "service":
			var s []byte
			if s, ok = d.str(); ok {
				if d.service != string(s) {
					d.service = string(s)
				}
				j.Service = d.service
			}
			field = 1
		case "state":
			var s []byte
			if s, ok = d.str(); ok {
				j.State = state(s)
			}
			field = 2
		case "inputs":
			field, ok = 3, d.values(&j.Inputs)
		case "outputs":
			field, ok = 4, d.values(&j.Outputs)
		case "error":
			field, ok = 5, d.text(&j.Error)
		case "created":
			field, ok = 6, d.timestamp(&j.Created)
		case "submitted":
			field, ok = 7, d.timestamp(&j.Submitted)
		case "started":
			field, ok = 8, d.timestamp(&j.Started)
		case "finished":
			field, ok = 9, d.timestamp(&j.Finished)
		case "destruction":
			field, ok = 10, d.timestamp(&j.Destruction)
		case "queueWait":
			field, ok = 11, d.duration(&j.QueueWait)
		case "runTime":
			field, ok = 12, d.duration(&j.RunTime)
		case "traceId":
			field, ok = 13, d.text(&j.TraceID)
		case "blocks":
			field, ok = 14, d.blocks(j)
		case "owner":
			field, ok = 15, d.text(&j.Owner)
		case "log":
			field, ok = 16, d.log(j)
		case "uri":
			field, ok = 17, d.text(&j.URI)
		}
		return ok && once(&seen, field)
	})
}

// once records field in the set seen and reports whether it was new.
func once(seen *uint32, field int) bool {
	bit := uint32(1) << field
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// text decodes a string field.
func (d *jobDecoder) text(dst *string) bool {
	s, ok := d.str()
	*dst = string(s)
	return ok
}

// values decodes a Values field.
func (d *jobDecoder) values(dst *Values) bool {
	m, ok := d.object(1)
	*dst = m
	return ok
}

// timestamp decodes a time field through time.Time.UnmarshalJSON, which
// encoding/json hands the string token with its quotes.
func (d *jobDecoder) timestamp(t *time.Time) bool {
	d.ws()
	from := d.i
	_, ok := d.str()
	return ok && t.UnmarshalJSON(d.data[from:d.i]) == nil
}

// duration decodes a Duration field from a string or number token through
// Duration.UnmarshalJSON.
func (d *jobDecoder) duration(dst *Duration) bool {
	c := d.ws()
	from := d.i
	var ok bool
	if c == '"' {
		_, ok = d.str()
	} else {
		_, ok = d.number()
	}
	return ok && dst.UnmarshalJSON(d.data[from:d.i]) == nil
}

// blocks decodes Job.Blocks, a map of block states.
func (d *jobDecoder) blocks(j *Job) bool {
	j.Blocks = map[string]JobState{}
	return d.members(func(k []byte) bool {
		s, ok := d.str()
		j.Blocks[string(k)] = state(s)
		return ok
	})
}

// log decodes Job.Log, a string array.
func (d *jobDecoder) log(j *Job) bool {
	j.Log = []string{}
	return d.sequence('[', ']', func() bool {
		s, ok := d.str()
		j.Log = append(j.Log, string(s))
		return ok
	})
}

// page decodes a job page into the zero page p.
func (d *jobDecoder) page(p *JobPage) bool {
	var seen uint32
	return d.members(func(k []byte) bool {
		var field int
		var ok bool
		switch string(k) {
		case "jobs":
			field, ok = 0, d.jobs(p)
		case "limit":
			field, ok = 1, d.int(&p.Limit)
		case "offset":
			field, ok = 2, d.int(&p.Offset)
		case "total":
			field, ok = 3, d.int(&p.Total)
		}
		return ok && once(&seen, field)
	})
}

// jobs decodes a page's job array; null (an absent list) and null
// elements are what AppendJSON writes for nil.
func (d *jobDecoder) jobs(p *JobPage) bool {
	if d.ws() == 'n' {
		return d.literal("null")
	}
	p.Jobs = []*Job{}
	return d.sequence('[', ']', func() bool {
		if d.ws() == 'n' {
			p.Jobs = append(p.Jobs, nil)
			return d.literal("null")
		}
		j := new(Job)
		p.Jobs = append(p.Jobs, j)
		return d.job(j)
	})
}

// int decodes an integer field as encoding/json does: an integer literal
// in range, never a fraction or an exponent.
func (d *jobDecoder) int(dst *int) bool {
	d.ws()
	num, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}
