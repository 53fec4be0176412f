package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mathcloud/internal/jsonschema"
)

func TestJobStateMachine(t *testing.T) {
	legal := []struct{ from, to JobState }{
		{StateWaiting, StateRunning},
		{StateWaiting, StateCancelled},
		{StateWaiting, StateError},
		{StateRunning, StateDone},
		{StateRunning, StateError},
		{StateRunning, StateCancelled},
	}
	for _, tr := range legal {
		if !tr.from.CanTransition(tr.to) {
			t.Errorf("%s -> %s should be legal", tr.from, tr.to)
		}
	}
	illegal := []struct{ from, to JobState }{
		{StateDone, StateRunning},
		{StateError, StateDone},
		{StateCancelled, StateWaiting},
		{StateWaiting, StateDone}, // must pass through RUNNING
		{StateRunning, StateWaiting},
	}
	for _, tr := range illegal {
		if tr.from.CanTransition(tr.to) {
			t.Errorf("%s -> %s should be illegal", tr.from, tr.to)
		}
	}
}

func TestTerminalStates(t *testing.T) {
	for _, s := range []JobState{StateDone, StateError, StateCancelled} {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
	}
	for _, s := range []JobState{StateWaiting, StateRunning} {
		if s.Terminal() {
			t.Errorf("%s should not be terminal", s)
		}
	}
	if JobState("BOGUS").Valid() {
		t.Error("bogus state is valid")
	}
}

// Property: no terminal state admits any transition.
func TestPropertyTerminalStatesAreFinal(t *testing.T) {
	states := []JobState{StateWaiting, StateRunning, StateDone, StateError, StateCancelled}
	prop := func(i, j uint8) bool {
		from := states[int(i)%len(states)]
		to := states[int(j)%len(states)]
		if from.Terminal() && from.CanTransition(to) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func testDescription() *ServiceDescription {
	num := jsonschema.New(jsonschema.TypeNumber)
	return &ServiceDescription{
		Name: "add",
		Inputs: []Param{
			{Name: "a", Schema: num},
			{Name: "b", Schema: num, Optional: true},
			{Name: "mode", Schema: jsonschema.MustParse(
				`{"type":"string","default":"fast"}`)},
		},
		Outputs: []Param{{Name: "sum", Schema: num}},
	}
}

func TestDescriptionValidate(t *testing.T) {
	if err := testDescription().Validate(); err != nil {
		t.Errorf("valid description rejected: %v", err)
	}
	bad := &ServiceDescription{Name: " "}
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	dup := &ServiceDescription{Name: "d", Inputs: []Param{{Name: "x"}, {Name: "x"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate parameter accepted")
	}
}

func TestValidateInputs(t *testing.T) {
	d := testDescription()
	cases := []struct {
		name string
		v    Values
		ok   bool
	}{
		{"all present", Values{"a": 1.0, "b": 2.0, "mode": "x"}, true},
		{"optional omitted", Values{"a": 1.0, "mode": "x"}, true},
		{"defaulted omitted", Values{"a": 1.0}, true},
		{"required missing", Values{"b": 2.0}, false},
		{"unknown name", Values{"a": 1.0, "zz": 1.0}, false},
		{"wrong type", Values{"a": "one"}, false},
		{"file ref passes schema", Values{"a": FileRef("deadbeef")}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := d.ValidateInputs(tc.v)
			if (err == nil) != tc.ok {
				t.Errorf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestApplyDefaults(t *testing.T) {
	d := testDescription()
	out := d.ApplyDefaults(Values{"a": 1.0})
	if out["mode"] != "fast" {
		t.Errorf("default not applied: %v", out)
	}
	out2 := d.ApplyDefaults(Values{"a": 1.0, "mode": "slow"})
	if out2["mode"] != "slow" {
		t.Error("explicit value overridden by default")
	}
}

func TestValidateOutputs(t *testing.T) {
	d := testDescription()
	if err := d.ValidateOutputs(Values{"sum": 3.0}); err != nil {
		t.Errorf("valid outputs rejected: %v", err)
	}
	if err := d.ValidateOutputs(Values{}); err == nil {
		t.Error("missing output accepted")
	}
	if err := d.ValidateOutputs(Values{"sum": "three"}); err == nil {
		t.Error("mistyped output accepted")
	}
}

func TestFileRefs(t *testing.T) {
	ref := FileRef("http://host/files/abc")
	id, ok := FileRefID(ref)
	if !ok || id != "http://host/files/abc" {
		t.Errorf("FileRefID = %q, %v", id, ok)
	}
	if _, ok := FileRefID("plain string"); ok {
		t.Error("plain string recognized as file ref")
	}
	if _, ok := FileRefID(42.0); ok {
		t.Error("number recognized as file ref")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 32 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestErrorsClassification(t *testing.T) {
	if !IsNotFound(ErrNotFound("service", "x")) {
		t.Error("ErrNotFound not recognized")
	}
	if IsNotFound(ErrConflict("busy")) {
		t.Error("conflict recognized as not-found")
	}
	for _, err := range []error{
		ErrNotFound("job", "j"),
		ErrConflict("c %d", 1),
		ErrBadRequest("b %s", "x"),
		ErrForbidden("f"),
	} {
		if err.Error() == "" || !strings.Contains(err.Error(), "core:") {
			t.Errorf("error %v lacks package prefix", err)
		}
	}
}

func TestJobClone(t *testing.T) {
	j := &Job{
		ID:      "1",
		Inputs:  Values{"a": 1.0},
		Outputs: Values{"b": 2.0},
		Blocks:  map[string]JobState{"x": StateDone},
		Log:     []string{"started"},
	}
	c := j.Clone()
	c.Inputs["a"] = 9.0
	c.Blocks["x"] = StateError
	c.Log[0] = "changed"
	if j.Inputs["a"] != 1.0 || j.Blocks["x"] != StateDone || j.Log[0] != "started" {
		t.Error("Clone shares mutable state with the original")
	}
}

func TestPrincipalEffective(t *testing.T) {
	p := Principal{ID: "cn:wms"}
	if p.Effective() != "cn:wms" {
		t.Errorf("Effective = %q", p.Effective())
	}
	p.OnBehalfOf = "openid:alice"
	if p.Effective() != "openid:alice" {
		t.Errorf("Effective = %q", p.Effective())
	}
}

func TestValuesHelpers(t *testing.T) {
	v := Values{"b": 1.0, "a": 2.0}
	names := v.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	c := v.Clone()
	c["a"] = 9.0
	if v["a"] != 2.0 {
		t.Error("Clone shares storage")
	}
	var nilV Values
	if nilV.Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

// TestDurationJSONRoundTrip pins the JSON text of a Duration: MarshalText
// gives what the former MarshalJSON quoted (fmt's %q of time.Duration),
// which decodes back to the same value; the nanosecond-number form still
// decodes, and omitempty still drops zero.
func TestDurationJSONRoundTrip(t *testing.T) {
	type doc struct {
		D Duration `json:"d,omitempty"`
	}
	for _, d := range []time.Duration{
		time.Nanosecond, 55521 * time.Nanosecond, 1500 * time.Millisecond,
		90 * time.Second, -2 * time.Millisecond, 3*time.Hour + time.Microsecond,
	} {
		text, err := Duration(d).MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		old := fmt.Sprintf("%q", d)
		if `"`+string(text)+`"` != old {
			t.Errorf("%d ns: MarshalText = %s, want the former %s", int64(d), text, old)
		}
		data, err := json.Marshal(doc{D: Duration(d)})
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"d":` + old + `}`; string(data) != want {
			t.Errorf("%d ns: json = %s, want %s", int64(d), data, want)
		}
		var out doc
		if err := json.Unmarshal(data, &out); err != nil || out.D.Std() != d {
			t.Errorf("%d ns: round trip = %v, %v", int64(d), out.D.Std(), err)
		}
		out = doc{}
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{"d":%d}`, int64(d))), &out); err != nil || out.D.Std() != d {
			t.Errorf("%d ns: number form decodes to %v, %v", int64(d), out.D.Std(), err)
		}
	}
	// Zero is omitted, so configurations without deadlines stay clean.
	if data, _ := json.Marshal(doc{}); string(data) != `{}` {
		t.Errorf("zero marshal = %s", data)
	}
	var out doc
	if err := json.Unmarshal([]byte(`{"d":"bogus"}`), &out); err == nil {
		t.Error("invalid duration accepted")
	}
}

func TestUnavailableError(t *testing.T) {
	err := ErrUnavailable(2*time.Second, "queue is %s", "full")
	var unavail *UnavailableError
	if !asErr(err, &unavail) {
		t.Fatalf("err = %T", err)
	}
	if unavail.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v", unavail.RetryAfter)
	}
	if !strings.Contains(err.Error(), "queue is full") {
		t.Errorf("message = %q", err.Error())
	}
}
