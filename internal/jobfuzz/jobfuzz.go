// Package jobfuzz holds what the fuzzers that hold the job encoders to
// encoding/json share: FuzzJobJSON (core.Job and core.JobPage),
// FuzzJournalRecord (the journal's job records) and FuzzJobRecordJSON (the
// container's jobs encoded from request and phase).  The three take the
// same parameters, build their values with Value, and read one seed
// corpus, core's testdata/fuzz/FuzzJobJSON, which the other two packages
// link to.  Only tests import it.
package jobfuzz

import "encoding/json"

// point is a struct parameter value, which the encoders hand to
// encoding/json.
type point struct {
	X    float64 `json:"x"`
	Note string  `json:"note,omitempty"`
}

// params is a named map type, which the encoders hand to encoding/json
// like any type they do not know.
type params map[string]any

// Value builds a parameter value of the shape kind selects: the generic
// JSON shapes, and Go values the encoders pass to encoding/json.
func Value(kind uint8, x float64, s string) any {
	switch kind % 10 {
	case 0:
		return int(kind)
	case 1:
		return []float64{x, -x}
	case 2:
		return point{X: x, Note: s}
	case 3:
		return []any{x, map[string]any{s: []any{s, nil, true}, "z": false}}
	case 4:
		return map[string]any{s: x, "<&>": []any{}, "empty": map[string]any{}}
	case 5:
		return float32(x)
	case 6:
		return nil
	case 7:
		return json.Number(s) // invalid number text fails both encoders
	case 8:
		return []any{[]any{[]any{x}}, []any(nil), map[string]any(nil)}
	default:
		return params{s: s}
	}
}
