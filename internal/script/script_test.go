package script

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mathcloud/internal/rest"
)

func run(t *testing.T, src string, in map[string]any) map[string]any {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, _, err := prog.Run(in)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// The programs of the table tests below also seed FuzzScriptRun.
type scriptCase struct {
	src  string
	want any
}

var arithmeticCases = []scriptCase{
	{"out.v = 1 + 2 * 3", 7.0},
	{"out.v = (1 + 2) * 3", 9.0},
	{"out.v = 10 % 3", 1.0},
	{"out.v = -2 * 3", -6.0},
	{"out.v = 7 / 2", 3.5},
	{"out.v = 1 < 2 && 3 >= 3", true},
	{"out.v = !false || false", true},
	{"out.v = \"a\" + \"b\" + 1", "ab1"},
	{"out.v = [1,2] + [3]", []any{1.0, 2.0, 3.0}},
	{"out.v = 1 == 1.0", true},
	{"out.v = \"x\" != \"y\"", true},
}

func TestArithmeticAndPrecedence(t *testing.T) {
	for _, tc := range arithmeticCases {
		out := run(t, tc.src, nil)
		got := out["v"]
		switch want := tc.want.(type) {
		case []any:
			arr, ok := got.([]any)
			if !ok || len(arr) != len(want) {
				t.Errorf("%s = %v, want %v", tc.src, got, want)
				continue
			}
			for i := range want {
				if arr[i] != want[i] {
					t.Errorf("%s = %v, want %v", tc.src, got, want)
				}
			}
		default:
			if got != tc.want {
				t.Errorf("%s = %v (%T), want %v", tc.src, got, got, tc.want)
			}
		}
	}
}

const controlFlowSrc = `
		total = 0
		for x in in.values {
			if x % 2 == 0 { continue }
			if x > 100 { break }
			total = total + x
		}
		i = 0
		while i < 3 { i = i + 1 }
		out.total = total
		out.i = i
	`

func TestControlFlow(t *testing.T) {
	out := run(t, controlFlowSrc, map[string]any{"values": []any{1.0, 2.0, 3.0, 201.0, 5.0}})
	if out["total"] != 4.0 {
		t.Errorf("total = %v, want 4 (1+3, breaking at 201)", out["total"])
	}
	if out["i"] != 3.0 {
		t.Errorf("i = %v, want 3", out["i"])
	}
}

const forOverMapSrc = `
		keysSeen = []
		for k, v in in.obj { keysSeen = push(keysSeen, k + "=" + v) }
		chars = 0
		for c in "héllo" { chars = chars + 1 }
		out.pairs = keysSeen
		out.chars = chars
	`

func TestForOverMapAndString(t *testing.T) {
	out := run(t, forOverMapSrc, map[string]any{"obj": map[string]any{"b": 2.0, "a": 1.0}})
	pairs, _ := out["pairs"].([]any)
	// Map iteration is sorted for determinism.
	if len(pairs) != 2 || pairs[0] != "a=1" || pairs[1] != "b=2" {
		t.Errorf("pairs = %v", pairs)
	}
	if out["chars"] != 5.0 {
		t.Errorf("chars = %v, want 5 (runes, not bytes)", out["chars"])
	}
}

const objectsSrc = `
		rec = {name: "ada", "full name": "ada lovelace", tags: [1, 2, 3]}
		rec.age = 36
		rec.tags[0] = 10
		out.name = rec.name
		out.full = rec["full name"]
		out.age = rec.age
		out.first = rec.tags[0]
	`

func TestObjectsAndIndexing(t *testing.T) {
	out := run(t, objectsSrc, nil)
	if out["name"] != "ada" || out["full"] != "ada lovelace" ||
		out["age"] != 36.0 || out["first"] != 10.0 {
		t.Errorf("out = %v", out)
	}
}

const returnSrc = `
		if in.x > 0 { return "positive" }
		return "non-positive"
	`

func TestReturnValue(t *testing.T) {
	prog, err := Parse(returnSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := prog.Run(map[string]any{"x": 5.0})
	if err != nil || ret != "positive" {
		t.Errorf("ret = %v, err = %v", ret, err)
	}
	_, ret, err = prog.Run(map[string]any{"x": -5.0})
	if err != nil || ret != "non-positive" {
		t.Errorf("ret = %v, err = %v", ret, err)
	}
}

var builtinCases = []scriptCase{
	{`out.v = len("abc")`, 3.0},
	{`out.v = len([1,2])`, 2.0},
	{`out.v = join(split("a,b,c", ","), "-")`, "a-b-c"},
	{`out.v = trim("  x  ")`, "x"},
	{`out.v = contains([1,2,3], 2)`, true},
	{`out.v = contains("hello", "ell")`, true},
	{`out.v = min(3, 1, 2)`, 1.0},
	{`out.v = max([3, 1, 2])`, 3.0},
	{`out.v = sum(range(5))`, 10.0},
	{`out.v = floor(2.7) + ceil(2.2) + round(2.5)`, 2.0 + 3.0 + 3.0},
	{`out.v = abs(-4)`, 4.0},
	{`out.v = sqrt(9)`, 3.0},
	{`out.v = str(42)`, "42"},
	{`out.v = num("3.5")`, 3.5},
	{`out.v = type([])`, "array"},
	{`out.v = format("%s-%v", "x", 7)`, "x-7"},
	{`out.v = toJSON({a: 1})`, `{"a":1}`},
	{`out.v = parseJSON("[1,2]")[1]`, 2.0},
	{`out.v = has({a: 1}, "a")`, true},
	{`out.v = keys({b: 1, a: 2})[0]`, "a"},
	{`out.v = sort([3,1,2])[0]`, 1.0},
	{`out.v = slice([1,2,3,4], 1, 3)[0]`, 2.0},
	{`out.v = push([1], 2, 3)[2]`, 3.0},
}

func TestBuiltins(t *testing.T) {
	for _, tc := range builtinCases {
		out := run(t, tc.src, nil)
		if out["v"] != tc.want {
			t.Errorf("%s = %v (%T), want %v", tc.src, out["v"], out["v"], tc.want)
		}
	}
}

func TestStepLimitStopsInfiniteLoop(t *testing.T) {
	prog, err := Parse(`while true { x = 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = prog.RunLimited(nil, 10000)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

// aliasingCases are programs that write through an alias of `in`; each
// must run on a copy of its inputs.  They also seed FuzzScriptRun.
var aliasingCases = []string{
	`x = in.arr; x[0] = 99; out.done = true`,
	`in.x = 1`,
	`t = in.m; t.k = 1`,
	`out.m = in.m; out.m.k = 1`,
	`out = in; out.x = 1`,
	`for out in in.a { out.x = 1 }`,
	`for i, out in in.a { out.x = i + 1 }`,
}

func TestInputsAreImmutable(t *testing.T) {
	for _, src := range aliasingCases {
		inputs := map[string]any{
			"arr": []any{1.0}, "x": 0.0, "m": map[string]any{"k": 0.0},
			"a": []any{map[string]any{"x": 0.0}},
		}
		before := copyJSON(inputs)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !prog.writesIn {
			t.Errorf("%q: analysed as not writing through in", src)
		}
		if _, _, err := prog.Run(inputs); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !reflect.DeepEqual(inputs, before) {
			t.Errorf("%q mutated the caller's inputs: %v", src, inputs)
		}
	}
	prog, err := Parse(`in = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.Run(nil); err == nil {
		t.Error("overwriting `in` allowed")
	}
}

var runtimeErrorCases = []scriptCase{
	{`out.v = nope`, "undefined variable"},
	{`out.v = 1 / 0`, "division by zero"},
	{`out.v = 1 % 0`, "modulo by zero"},
	{`out.v = [1][5]`, "out of range"},
	{`out.v = "a" - 1`, "needs numbers"},
	{`out.v = frob(1)`, "unknown function"},
	{`out.v = len(5)`, "len of number"},
	{`for x in 5 { }`, "cannot iterate"},
	{`out.v = {}.x.y`, "cannot read field"},
	{`out.v = -"s"`, "needs a number"},
	{`out.v = 1 < "a"`, "cannot compare"},
}

func TestRuntimeErrors(t *testing.T) {
	for _, tc := range runtimeErrorCases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		_, _, err = prog.Run(nil)
		if err == nil || !strings.Contains(err.Error(), tc.want.(string)) {
			t.Errorf("%q: err = %v, want substring %q", tc.src, err, tc.want)
		}
	}
}

// TestWritesInAnalysis pins which programs read their inputs in place.
func TestWritesInAnalysis(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`out.y = in.x + 1`, false},
		{`out[in.k] = in.m`, false},
		{`t = in.m; out.m = t; out.n = t.k`, false},
		{`for k, v in in.m { out[k] = v }`, false},
		{`in = 5`, false}, // a runtime error before anything is written
		{`x = [1]; x[0] = 2`, true},
		{`out.a.b = 1`, true},
		{`out = {}`, true},
		{`for i, out in in.a { }`, true},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if prog.writesIn != tc.want {
			t.Errorf("%q: writesIn = %v, want %v", tc.src, prog.writesIn, tc.want)
		}
	}
}

// TestLoopCannotBindInputs: a loop variable named `in` would rebind the
// inputs object, which an assignment to `in` may not do either.
func TestLoopCannotBindInputs(t *testing.T) {
	cases := []struct {
		src string
		col int
	}{
		{`for in in in.a { }`, 5},
		{`for k, in in in.m { }`, 8},
		{`for in, v in in.m { }`, 5},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Line != 1 || se.Col != tc.col ||
			!strings.Contains(se.Message, "inputs object") {
			t.Errorf("Parse(%q) = %v, want a syntax error at 1:%d", tc.src, err, tc.col)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		`out.v = `,
		`if { }`,
		`for in x { }`,
		`while true`,
		`out.v = [1, 2`,
		`out.v = {a: }`,
		`1 = 2`,
		`out.v = 1 ? 2`,
		`"unterminated`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want syntax error", src)
		}
	}
}

func TestComments(t *testing.T) {
	out := run(t, `
		# hash comment
		// slash comment
		out.v = 1 # trailing
	`, nil)
	if out["v"] != 1.0 {
		t.Errorf("v = %v", out["v"])
	}
}

// Property: sum(arr) computed by the script equals the host-side sum.
func TestPropertySumMatchesHost(t *testing.T) {
	prog, err := Parse(`out.s = sum(in.values)`)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		arr := make([]any, n)
		want := 0.0
		for i := range arr {
			v := float64(rng.Intn(1000))
			arr[i] = v
			want += v
		}
		out, _, err := prog.Run(map[string]any{"values": arr})
		if err != nil {
			return false
		}
		return out["s"] == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: sort is idempotent and length-preserving.
func TestPropertySort(t *testing.T) {
	prog, err := Parse(`
		s1 = sort(in.values)
		out.sorted = s1
		out.twice = sort(s1)
		out.n = len(s1)
	`)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = float64(rng.Intn(100))
		}
		out, _, err := prog.Run(map[string]any{"values": arr})
		if err != nil {
			return false
		}
		sorted := out["sorted"].([]any)
		twice := out["twice"].([]any)
		if out["n"] != float64(n) || len(sorted) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if sorted[i-1].(float64) > sorted[i].(float64) {
				return false
			}
		}
		for i := range sorted {
			if sorted[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBuiltinsListed(t *testing.T) {
	names := Builtins()
	if len(names) < 20 {
		t.Errorf("only %d builtins listed", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Builtins not sorted")
		}
	}
}

// TestRunAllocBudget pins the allocations of one run of the benchmark's
// script service, `out.y = in.x + 1`: it reads its inputs in place and
// takes its frame from the pool, so what remains is the outputs object
// and the boxed result.  The budget is a constant of alloc_budget_test.go,
// and of alloc_budget_race_test.go under the race detector; a change may
// lower it, never raise it.
func TestRunAllocBudget(t *testing.T) {
	prog, err := Parse(`out.y = in.x + 1`)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]any{"x": 1.0}
	allocs := testing.AllocsPerRun(1000, func() {
		if out, _, err := prog.Run(inputs); err != nil || out["y"] != 2.0 {
			t.Fatalf("Run: %v, %v", out, err)
		}
	})
	t.Logf("Run: %.0f allocations (budget %v)", allocs, runAllocBudget)
	if allocs > runAllocBudget {
		t.Fatalf("Run allocates %.0f times, budget %v", allocs, runAllocBudget)
	}
}

// TestValueBound runs programs that would each build a value past the
// value limit, lowered to 1 MiB so that the array cases stay small: every
// one fails with a RuntimeError naming the limit and allocates a bounded
// amount on the way.  Strings double, arrays double, renderings of a value
// that shares its parts or holds itself (str, toJSON, join, string
// concatenation, format, the outputs) and comparisons of one are all
// refused before they are built.
func TestValueBound(t *testing.T) {
	if maxValueBytes != rest.MaxBodyBytes {
		t.Fatalf("value limit %d, request body limit %d", maxValueBytes, rest.MaxBodyBytes)
	}
	out := run(t, `s = "x"; i = 0; while i < 24 { s = s + s; i = i + 1 }; out.n = len(s); `+
		`out.r = len(range(2000000)); `+
		`out.f = format("%5.2f|%q|%v|%d", 3.14159, "a\n", [1, {"k": true}], "s"); `+
		`a = [1, "<é>"]; b = [a, {"a": a}]; out.j = toJSON(b); out.s = str(b); out.c = "" + b; `+
		`out.e = b == [a, {"a": a}]; out.in = contains([b], b)`, nil)
	const shared = `[[1,"\u003cé\u003e"],{"a":[1,"\u003cé\u003e"]}]`
	if out["n"] != float64(rest.MaxBodyBytes) || out["r"] != 2e6 ||
		out["f"] != " 3.14|\"a\\n\"|[1 map[k:true]]|%!d(string=s)" ||
		out["j"] != shared || out["s"] != shared || out["c"] != shared ||
		out["e"] != true || out["in"] != true {
		t.Errorf("runs within the limit: %v", out)
	}

	defer func(limit int) { maxValueBytes = limit }(maxValueBytes)
	const limit = 1 << 20
	maxValueBytes = limit
	const (
		big    = `s = "x"; while len(s) < 1048576 { s = s + s }; `
		nested = `a = range(524288); b = [a, a, a, a, a, a, a, a]; ` +
			`c = [b, b, b, b, b, b, b, b]; d = [c, c, c, c, c, c, c, c]; `
		cyclic = `m = {}; m.self = m; `
	)
	for _, src := range []string{
		`s = "x"; while true { s = s + s }`,
		`a = [0]; while true { a = a + a }`,
		`out.v = range(524289)`,
		`a = range(524288); out.v = push(a, 1)`,
		big + `out.v = split(s, "")`,
		big + `out.v = join([s, "y"], "")`,
		big + `out.v = s + 1`,
		`out.v = format("%1000000v", range(100))`,
		`out.v = format("%999999.999999f%[1]v%[1]v", range(10))`,
		big + `out.v = format("%q", s)`,
		nested + `out.v = toJSON(d)`,
		nested + `out.v = str(d)`,
		nested + `out.v = "" + d`,
		nested + `out.v = join(d, "")`,
		nested + `out.v = format("%v", d)`,
		nested + `out.v = d`,
		cyclic + `out.v = toJSON(m)`,
		cyclic + `out.v = str(m)`,
		cyclic + `out.v = "" + m`,
		cyclic + `out.v = join([m], "")`,
		cyclic + `out.v = format("%v", m)`,
		`m = {}; m.a = m; m.b = m; out.v = format("%v", m)`,
		cyclic + `out.v = m == m`,
		cyclic + `out.v = m != {"self": m}`,
		cyclic + `out.v = contains([m], m)`,
		cyclic + `out.v = m`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = prog.Run(nil)
		runtime.ReadMemStats(&after)
		var rt *RuntimeError
		if !errors.As(err, &rt) || !strings.Contains(err.Error(), "value limit") {
			t.Errorf("%q: err = %v, want a RuntimeError naming the value limit", src, err)
		}
		// The largest array the limit allows is 16 bytes an element.
		if n := after.TotalAlloc - before.TotalAlloc; n > 32*limit {
			t.Errorf("%q allocated %d MiB", src, n>>20)
		}
	}

	// Outputs of numbers whose text is just under the limit, although
	// counting each number at maxNumberLen puts them far over it, pass;
	// one number more fails.
	fits := sort.Search(limit/elemBytes, func(n int) bool {
		_, err := textSize(map[string]any{"v": rangeOf(n + 1)})
		return err != nil
	})
	if loose := fits * maxNumberLen; loose <= limit {
		t.Fatalf("%d numbers count %d bytes loosely, want past the %d-byte limit", fits, loose, limit)
	}
	if _, _, err := mustParse(t, fmt.Sprintf("out.v = range(%d)", fits)).Run(nil); err != nil {
		t.Errorf("outputs of %d numbers, just under the limit: %v", fits, err)
	}
	_, _, err := mustParse(t, fmt.Sprintf("out.v = range(%d)", fits+1)).Run(nil)
	var rt *RuntimeError
	if !errors.As(err, &rt) || !strings.Contains(err.Error(), "outputs") {
		t.Errorf("outputs of %d numbers, just over the limit: err = %v, want the outputs bound", fits+1, err)
	}
}

// rangeOf is the script's range(n).
func rangeOf(n int) []any {
	a := make([]any, n)
	for i := range a {
		a[i] = float64(i)
	}
	return a
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return prog
}

// TestMaxNumberLen: no float64 renders past maxNumberLen, and the longest
// renderings reach it.
func TestMaxNumberLen(t *testing.T) {
	longest := 0
	check := func(x float64) {
		n := numberLen(x)
		if n > maxNumberLen {
			t.Fatalf("numberLen(%v) = %d, past maxNumberLen %d", x, n, maxNumberLen)
		}
		longest = max(longest, n)
	}
	for _, x := range []float64{
		-0.0000012345678901234567, -math.Nextafter(1e-6, 1), -math.Nextafter(1e-6, 0),
		-math.MaxFloat64, -math.SmallestNonzeroFloat64, -math.Nextafter(1e21, 0),
		-1.2345678901234567e-308, -1.2345678901234567e+300,
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		x := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			check(x)
		}
		// Numbers with many digits where the fixed and exponent forms meet.
		check(-(1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(44)-22)))
	}
	if longest != maxNumberLen {
		t.Errorf("longest rendering %d bytes, maxNumberLen %d", longest, maxNumberLen)
	}
}

// TestEqualityChargesSteps: ==, != and contains charge the values they
// compare to the step limit, one step per valuesPerStep values, so a value
// that shares its parts cannot make one step compare millions of values.
func TestEqualityChargesSteps(t *testing.T) {
	const nested = `a = range(10000); b = [a, a, a, a, a, a, a, a]; ` +
		`c = [b, b, b, b, b, b, b, b]; d = [c, c, c, c, c, c, c, c]; `
	for _, src := range []string{
		nested + `out.e = d == d`,
		nested + `out.e = d != d`,
		nested + `out.e = contains([d], d)`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, _, err = prog.RunLimited(nil, 10000)
		var rt *RuntimeError
		if !errors.As(err, &rt) || !strings.Contains(err.Error(), "step limit exceeded") {
			t.Errorf("%q: err = %v, want the step limit", src, err)
		}
	}
	// The same comparisons of a small value stay cheap: 2 + 10000 values
	// are about 157 steps.
	prog, err := Parse(`a = range(10000); b = [a]; out.e = b == [a]; out.c = contains([b], [a])`)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := prog.RunLimited(nil, 1000)
	if err != nil || out["e"] != true || out["c"] != true {
		t.Fatalf("small comparisons: %v, %v", out, err)
	}
}

// TestTextSizeBoundsRenderings: textSize is never below the length of a
// value's JSON encoding, its %v rendering or stringify's.
func TestTextSizeBoundsRenderings(t *testing.T) {
	for _, v := range []any{
		nil, true, false, 0.0, math.Copysign(0, -1), 123456789.0, 1e20, 1e21, -1.5e-7,
		-0.000001234567890123456, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.NaN(), "", "<a href=\"x\">&amp;</a>", "\x00\b\f\n\r\t\x1f\\",
		"\u2028\u2029é\xff\xfe", "пример",
		[]any{}, map[string]any{}, []any{nil, true, 1e9, "x"},
		map[string]any{"<k>": []any{map[string]any{"": nil}}, "b": -12345678.0},
		[]any{math.Inf(-1), map[string]any{"a": 1e300}},
	} {
		n, err := textSize(v)
		if err != nil {
			t.Fatalf("textSize(%#v): %v", v, err)
		}
		renderings := []string{stringify(v), fmt.Sprintf("%v", v)}
		if data, err := json.Marshal(v); err == nil {
			renderings = append(renderings, string(data))
		}
		for _, r := range renderings {
			if len(r) > n {
				t.Errorf("textSize(%#v) = %d, below %q (%d bytes)", v, n, r, len(r))
			}
		}
	}
}
