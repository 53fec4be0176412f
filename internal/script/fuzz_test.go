package script

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// fuzzSteps and fuzzValueBytes are FuzzScriptRun's step limit and value
// limit (maxValueBytes): no value a generated run builds passes 64 KiB
// (an array of 32K elements, 512 KiB in memory), and the step limit bounds
// how many it builds, so one run allocates some tens of MB at most.
const (
	fuzzSteps      = 64
	fuzzValueBytes = 64 << 10
)

// FuzzScriptRun checks the inputs-copy elision differentially: every
// (program, inputs) pair runs once as analysed and once with the inputs
// copied, and the two must agree on outputs, return value and error.  A
// run that reads its inputs in place must leave them as they were, the
// outputs a run returns must render within the text textSize counts, and
// the run's outputs bound (outputsFit) must reach textSize's verdict on
// them at every limit around their size.
func FuzzScriptRun(f *testing.F) {
	const inputs = `{"x":1,"k":"m","a":[{"x":0},{}],"m":{"k":0},"arr":[1],` +
		`"values":[1,2,3,201,5],"obj":{"b":2,"a":1}}`
	srcs := []string{controlFlowSrc, forOverMapSrc, objectsSrc, returnSrc}
	for _, cases := range [][]scriptCase{arithmeticCases, builtinCases, runtimeErrorCases} {
		for _, tc := range cases {
			srcs = append(srcs, tc.src)
		}
	}
	srcs = append(srcs, aliasingCases...)
	for _, src := range srcs {
		f.Add(src, inputs)
	}
	defer func(limit int) { maxValueBytes = limit }(maxValueBytes)
	maxValueBytes = fuzzValueBytes
	f.Fuzz(func(t *testing.T, src, inputsJSON string) {
		if len(src) > 256 || len(inputsJSON) > 256 {
			t.Skip()
		}
		var in map[string]any
		if json.Unmarshal([]byte(inputsJSON), &in) != nil || in == nil {
			t.Skip()
		}
		prog, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		before := copyJSON(in)
		out, ret, err := prog.run(in, fuzzSteps, prog.writesIn)
		if !reflect.DeepEqual(in, before) {
			t.Fatalf("%q (writesIn=%v) wrote into its inputs: %v, was %v", src, prog.writesIn, in, before)
		}
		if err == nil {
			n, _ := textSize(out)
			data, jerr := json.Marshal(out)
			if jerr == nil && len(data) > n || len(fmt.Sprint(out)) > n {
				t.Fatalf("%q: outputs %v render past their textSize %d", src, out, n)
			}
			for _, limit := range []int{n - 1, n, fuzzValueBytes} {
				maxValueBytes = limit
				_, exact := textSize(out)
				if fit := outputsFit(out); (fit == nil) != (exact == nil) {
					t.Fatalf("%q: at a %d-byte limit outputsFit says %v, textSize %v", src, limit, fit, exact)
				}
			}
			maxValueBytes = fuzzValueBytes
		}
		wantOut, wantRet, wantErr := prog.run(in, fuzzSteps, true)
		if sameRun(out, ret, err, wantOut, wantRet, wantErr) {
			return
		}
		// A program that prints an address (format's %p) differs from
		// itself; only a copy-elision difference is a failure.
		againOut, againRet, againErr := prog.run(in, fuzzSteps, true)
		if !sameRun(wantOut, wantRet, wantErr, againOut, againRet, againErr) {
			t.Skip("nondeterministic program")
		}
		t.Fatalf("%q (writesIn=%v): got %v, %v, %v; with the copy %v, %v, %v",
			src, prog.writesIn, out, ret, err, wantOut, wantRet, wantErr)
	})
}

func sameRun(out1 map[string]any, ret1 any, err1 error, out2 map[string]any, ret2 any, err2 error) bool {
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		return false
	}
	return sameJSON(out1, out2) && sameJSON(ret1, ret2)
}

// sameJSON is deep equality of JSON values in which NaN equals itself.
func sameJSON(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || math.IsNaN(x) && math.IsNaN(y))
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameJSON(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameJSON(v, w) {
				return false
			}
		}
		return true
	}
	return a == b
}

// TestPropertyParserNeverPanics throws random token soup at the parser:
// it must either parse or return a SyntaxError, never panic.
func TestPropertyParserNeverPanics(t *testing.T) {
	fragments := []string{
		"out", ".", "=", "in", "x", "1", "2.5", "\"s\"", "(", ")", "[", "]",
		"{", "}", "+", "-", "*", "/", "%", "if", "else", "for", "while",
		"return", "break", "continue", "true", "false", "null", ",", ";",
		"&&", "||", "==", "!=", "<", ">", "<=", ">=", "!", "len", ":",
	}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("parser panicked: %v", r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fragments[rng.Intn(len(fragments))]
		}
		src := strings.Join(parts, " ")
		prog, err := Parse(src)
		if err != nil {
			return true // rejection is fine
		}
		// If it parses, a bounded run must not panic either.
		_, _, _ = prog.RunLimited(map[string]any{"x": 1.0}, 50000)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLexerNeverPanics feeds random bytes to the lexer.
func TestPropertyLexerNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = lexAll(string(data))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
