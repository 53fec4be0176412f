package script

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Program is a compiled MCScript ready for execution.
type Program struct {
	body *stmtBlock
	src  string
	// writesIn is set by Parse when the program may write into a value
	// reachable from `in` (see writesThrough); only then does a run copy
	// its inputs.
	writesIn bool
}

// Source returns the original script text.
func (p *Program) Source() string { return p.src }

// DefaultStepLimit bounds the number of evaluation steps per run so that
// user-supplied workflow actions cannot loop forever inside a service.
const DefaultStepLimit = 5_000_000

// A RuntimeError reports a failure during script execution.
type RuntimeError struct {
	Line, Col int
	Message   string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("script: runtime: %d:%d: %s", e.Line, e.Col, e.Message)
}

// control-flow signals propagated through the evaluator.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type env struct {
	vars      map[string]any
	steps     int
	stepLimit int
	retVal    any
}

func (e *env) tick(n node) error {
	e.steps++
	if e.steps > e.stepLimit {
		line, col := n.pos()
		return &RuntimeError{line, col, "step limit exceeded"}
	}
	return nil
}

// maxValueBytes bounds every value a run builds: string and array
// concatenation, range, split, push, join, str, toJSON and format fail
// with a RuntimeError past it instead of allocating without limit, and so
// does a run whose outputs would pass it.  It is the request body limit
// (rest.MaxBodyBytes).  A string counts its bytes, an array elemBytes per
// element, and a rendering (str, toJSON, string concatenation, the
// outputs) the text it writes, measured by textSize before it is built.
// So every string or array a request body can carry can also be rebuilt.
// It is a variable only so that the fuzzer can lower it.
var maxValueBytes = 16 << 20

// elemBytes is what one array element counts against maxValueBytes: the
// wire size of the smallest one, "0,".
const elemBytes = 2

// maxDepth bounds how deep a measure or a comparison follows a value: a
// value that holds itself (m.self = m) is as deep as it is followed.
const maxDepth = 1000

// errTooDeep is the error for a value nested deeper than maxDepth.
var errTooDeep = fmt.Errorf("value nests deeper than the %d-level value limit", maxDepth)

// checkSize fails when a value of n bytes would exceed maxValueBytes.
func checkSize(what string, n int) error {
	if n > maxValueBytes {
		return fmt.Errorf("%s of %d bytes exceeds the %d-byte value limit", what, n, maxValueBytes)
	}
	return nil
}

func rtErr(n node, format string, args ...any) error {
	line, col := n.pos()
	return &RuntimeError{line, col, fmt.Sprintf(format, args...)}
}

// Run executes the program with the given input values.  Inputs are exposed
// as the object `in`; the script writes results into the object `out`,
// which Run returns.  The optional return value of the script (via
// `return`) is also returned.  The inputs are never modified: they are
// copied first when the program can write through `in`, and read in place
// otherwise, so the outputs may share nested values with them.
func (p *Program) Run(inputs map[string]any) (outputs map[string]any, ret any, err error) {
	return p.RunLimited(inputs, DefaultStepLimit)
}

// RunLimited is Run with an explicit evaluation step limit.
func (p *Program) RunLimited(inputs map[string]any, stepLimit int) (map[string]any, any, error) {
	return p.run(inputs, stepLimit, p.writesIn)
}

// envPool recycles evaluation frames across runs.
var envPool = sync.Pool{New: func() any { return &env{vars: make(map[string]any, 2)} }}

func (p *Program) run(inputs map[string]any, stepLimit int, copyIn bool) (map[string]any, any, error) {
	if inputs == nil {
		inputs = map[string]any{}
	} else if copyIn {
		inputs = copyJSON(inputs).(map[string]any)
	}
	out := map[string]any{}
	e := envPool.Get().(*env)
	e.vars["in"], e.vars["out"] = inputs, out
	e.stepLimit = stepLimit
	_, err := e.execBlock(p.body)
	ret := e.retVal
	// No run's values outlive it in the pool.
	clear(e.vars)
	e.steps, e.retVal = 0, nil
	envPool.Put(e)
	if err == nil {
		if serr := outputsFit(out); serr != nil {
			err = rtErr(p.body, "outputs: %v", serr)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return out, ret, nil
}

func (e *env) execBlock(b *stmtBlock) (ctrl, error) {
	for _, s := range b.stmts {
		c, err := e.exec(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (e *env) exec(n node) (ctrl, error) {
	if err := e.tick(n); err != nil {
		return ctrlNone, err
	}
	switch s := n.(type) {
	case *stmtBlock:
		return e.execBlock(s)
	case *stmtExpr:
		_, err := e.eval(s.expr)
		return ctrlNone, err
	case *stmtAssign:
		val, err := e.eval(s.value)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, e.assign(s.target, val)
	case *stmtIf:
		cond, err := e.eval(s.cond)
		if err != nil {
			return ctrlNone, err
		}
		if truthy(cond) {
			return e.execBlock(s.then)
		}
		if s.els != nil {
			return e.exec(s.els)
		}
		return ctrlNone, nil
	case *stmtWhile:
		for {
			cond, err := e.eval(s.cond)
			if err != nil {
				return ctrlNone, err
			}
			if !truthy(cond) {
				return ctrlNone, nil
			}
			if err := e.tick(s); err != nil {
				return ctrlNone, err
			}
			c, err := e.execBlock(s.body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}
	case *stmtFor:
		return e.execFor(s)
	case *stmtReturn:
		if s.value != nil {
			val, err := e.eval(s.value)
			if err != nil {
				return ctrlNone, err
			}
			e.retVal = val
		}
		return ctrlReturn, nil
	case *stmtBreak:
		return ctrlBreak, nil
	case *stmtContinue:
		return ctrlContinue, nil
	default:
		return ctrlNone, rtErr(n, "unknown statement %T", n)
	}
}

func (e *env) execFor(s *stmtFor) (ctrl, error) {
	seq, err := e.eval(s.seq)
	if err != nil {
		return ctrlNone, err
	}
	iterate := func(key any, val any) (ctrl, error) {
		if err := e.tick(s); err != nil {
			return ctrlNone, err
		}
		if s.keyVar != "" {
			e.vars[s.keyVar] = key
		}
		e.vars[s.valVar] = val
		return e.execBlock(s.body)
	}
	switch coll := seq.(type) {
	case []any:
		for i, v := range coll {
			c, err := iterate(float64(i), v)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}
		return ctrlNone, nil
	case map[string]any:
		keys := make([]string, 0, len(coll))
		for k := range coll {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c, err := iterate(k, coll[k])
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}
		return ctrlNone, nil
	case string:
		for i, r := range coll {
			c, err := iterate(float64(i), string(r))
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}
		return ctrlNone, nil
	default:
		return ctrlNone, rtErr(s, "cannot iterate over %s", typeOf(seq))
	}
}

func (e *env) assign(target node, val any) error {
	switch t := target.(type) {
	case *exprIdent:
		if t.name == "in" {
			return rtErr(t, "cannot overwrite the inputs object")
		}
		e.vars[t.name] = val
		return nil
	case *exprField:
		obj, err := e.eval(t.object)
		if err != nil {
			return err
		}
		m, ok := obj.(map[string]any)
		if !ok {
			return rtErr(t, "cannot set field %q on %s", t.name, typeOf(obj))
		}
		m[t.name] = val
		return nil
	case *exprIndex:
		obj, err := e.eval(t.object)
		if err != nil {
			return err
		}
		idx, err := e.eval(t.index)
		if err != nil {
			return err
		}
		switch coll := obj.(type) {
		case map[string]any:
			key, ok := idx.(string)
			if !ok {
				return rtErr(t, "object index must be a string, got %s", typeOf(idx))
			}
			coll[key] = val
			return nil
		case []any:
			i, ok := asIndex(idx, len(coll))
			if !ok {
				return rtErr(t, "array index %v out of range (len %d)", idx, len(coll))
			}
			coll[i] = val
			return nil
		default:
			return rtErr(t, "cannot index-assign into %s", typeOf(obj))
		}
	default:
		return rtErr(target, "invalid assignment target")
	}
}

func (e *env) eval(n node) (any, error) {
	if err := e.tick(n); err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *exprLiteral:
		return x.value, nil
	case *exprIdent:
		v, ok := e.vars[x.name]
		if !ok {
			return nil, rtErr(x, "undefined variable %q", x.name)
		}
		return v, nil
	case *exprField:
		obj, err := e.eval(x.object)
		if err != nil {
			return nil, err
		}
		m, ok := obj.(map[string]any)
		if !ok {
			return nil, rtErr(x, "cannot read field %q of %s", x.name, typeOf(obj))
		}
		return m[x.name], nil
	case *exprIndex:
		obj, err := e.eval(x.object)
		if err != nil {
			return nil, err
		}
		idx, err := e.eval(x.index)
		if err != nil {
			return nil, err
		}
		switch coll := obj.(type) {
		case []any:
			i, ok := asIndex(idx, len(coll))
			if !ok {
				return nil, rtErr(x, "array index %v out of range (len %d)", idx, len(coll))
			}
			return coll[i], nil
		case map[string]any:
			key, ok := idx.(string)
			if !ok {
				return nil, rtErr(x, "object index must be a string, got %s", typeOf(idx))
			}
			return coll[key], nil
		case string:
			i, ok := asIndex(idx, len(coll))
			if !ok {
				return nil, rtErr(x, "string index %v out of range (len %d)", idx, len(coll))
			}
			return string(coll[i]), nil
		default:
			return nil, rtErr(x, "cannot index %s", typeOf(obj))
		}
	case *exprUnary:
		v, err := e.eval(x.operand)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "-":
			f, ok := v.(float64)
			if !ok {
				return nil, rtErr(x, "unary - needs a number, got %s", typeOf(v))
			}
			return -f, nil
		case "!":
			return !truthy(v), nil
		}
		return nil, rtErr(x, "unknown unary operator %q", x.op)
	case *exprBinary:
		return e.evalBinary(x)
	case *exprArray:
		out := make([]any, 0, len(x.elems))
		for _, el := range x.elems {
			v, err := e.eval(el)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case *exprObject:
		out := make(map[string]any, len(x.keys))
		for i, k := range x.keys {
			v, err := e.eval(x.values[i])
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case *exprCall:
		return e.evalCall(x)
	default:
		return nil, rtErr(n, "unknown expression %T", n)
	}
}

func (e *env) evalBinary(x *exprBinary) (any, error) {
	// Short-circuit logic first.
	if x.op == "&&" || x.op == "||" {
		left, err := e.eval(x.left)
		if err != nil {
			return nil, err
		}
		if x.op == "&&" && !truthy(left) {
			return false, nil
		}
		if x.op == "||" && truthy(left) {
			return true, nil
		}
		right, err := e.eval(x.right)
		if err != nil {
			return nil, err
		}
		return truthy(right), nil
	}
	left, err := e.eval(x.left)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(x.right)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "==", "!=":
		w := equalWalk{e: e}
		eq, err := w.equal(left, right, 0)
		if err != nil {
			return nil, rtErr(x, "%v", err)
		}
		return eq == (x.op == "=="), nil
	case "+":
		// Numeric addition, string and array concatenation.
		if lf, ok := left.(float64); ok {
			rf, ok := right.(float64)
			if !ok {
				return nil, rtErr(x, "cannot add number and %s", typeOf(right))
			}
			return lf + rf, nil
		}
		if ls, ok := left.(string); ok {
			rs, err := render(right, len(ls))
			if err != nil {
				return nil, rtErr(x, "%v", err)
			}
			return ls + rs, nil
		}
		if la, ok := left.([]any); ok {
			if ra, ok := right.([]any); ok {
				if err := checkSize("array", (len(la)+len(ra))*elemBytes); err != nil {
					return nil, rtErr(x, "%v", err)
				}
				out := make([]any, 0, len(la)+len(ra))
				out = append(out, la...)
				out = append(out, ra...)
				return out, nil
			}
			return nil, rtErr(x, "cannot add array and %s", typeOf(right))
		}
		return nil, rtErr(x, "cannot add %s and %s", typeOf(left), typeOf(right))
	case "-", "*", "/", "%":
		lf, lok := left.(float64)
		rf, rok := right.(float64)
		if !lok || !rok {
			return nil, rtErr(x, "operator %q needs numbers, got %s and %s",
				x.op, typeOf(left), typeOf(right))
		}
		switch x.op {
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			if rf == 0 {
				return nil, rtErr(x, "division by zero")
			}
			return lf / rf, nil
		case "%":
			if rf == 0 {
				return nil, rtErr(x, "modulo by zero")
			}
			return math.Mod(lf, rf), nil
		}
	case "<", "<=", ">", ">=":
		if lf, ok := left.(float64); ok {
			rf, ok := right.(float64)
			if !ok {
				return nil, rtErr(x, "cannot compare number with %s", typeOf(right))
			}
			return compareOp(x.op, lf < rf, lf == rf), nil
		}
		if ls, ok := left.(string); ok {
			rs, ok := right.(string)
			if !ok {
				return nil, rtErr(x, "cannot compare string with %s", typeOf(right))
			}
			return compareOp(x.op, ls < rs, ls == rs), nil
		}
		return nil, rtErr(x, "cannot order %s values", typeOf(left))
	}
	return nil, rtErr(x, "unknown operator %q", x.op)
}

func compareOp(op string, less, equal bool) bool {
	switch op {
	case "<":
		return less
	case "<=":
		return less || equal
	case ">":
		return !less && !equal
	case ">=":
		return !less
	}
	return false
}

func truthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0
	case string:
		return x != ""
	case []any:
		return len(x) > 0
	case map[string]any:
		return len(x) > 0
	}
	return true
}

func typeOf(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}

func asIndex(v any, length int) (int, bool) {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return 0, false
	}
	i := int(f)
	if i < 0 || i >= length {
		return 0, false
	}
	return i, true
}

// valuesPerStep is how many values an equality test (==, !=, contains)
// compares per evaluation step, so that a value sharing its parts, walked
// once per path, cannot make one step compare millions.  Two maximal
// inputs (8,388,608 elements) compare in about 131k steps.
const valuesPerStep = 64

// equalWalk compares values as JSON, charging e's steps as it goes.
type equalWalk struct {
	e *env
	n int // values compared since the last step charged
}

// equal reports whether two values are equal as JSON.  It fails past
// maxDepth, which a value that holds itself reaches, and past the step
// limit.
func (w *equalWalk) equal(a, b any, depth int) (bool, error) {
	if depth > maxDepth {
		return false, errTooDeep
	}
	if w.n++; w.n == valuesPerStep {
		w.n = 0
		if w.e.steps++; w.e.steps > w.e.stepLimit {
			return false, errors.New("step limit exceeded")
		}
	}
	switch av := a.(type) {
	case nil:
		return b == nil, nil
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv, nil
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv, nil
	case string:
		bv, ok := b.(string)
		return ok && av == bv, nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false, nil
		}
		for i := range av {
			if eq, err := w.equal(av[i], bv[i], depth+1); !eq || err != nil {
				return false, err
			}
		}
		return true, nil
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false, nil
		}
		for k, v := range av {
			bvv, ok := bv[k]
			if !ok {
				return false, nil
			}
			if eq, err := w.equal(v, bvv, depth+1); !eq || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	return false, nil
}

func stringify(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return x
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		return string(data)
	}
}

// render is stringify for a string that already holds used bytes: it
// fails, before building anything, when the result would pass
// maxValueBytes.  A container is measured first, so one that shares its
// parts or holds itself fails without being rendered.
func render(v any, used int) (string, error) {
	switch v.(type) {
	case []any, map[string]any:
		n, err := textSize(v)
		if err == nil {
			err = checkSize("string", used+n)
		}
		if err != nil {
			return "", err
		}
	}
	s := stringify(v)
	return s, checkSize("string", used+len(s))
}

// copyJSON deep-copies a JSON value so scripts cannot mutate shared inputs.
func copyJSON(v any) any {
	switch x := v.(type) {
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = copyJSON(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = copyJSON(e)
		}
		return out
	default:
		return v
	}
}

func (e *env) evalCall(x *exprCall) (any, error) {
	args := make([]any, len(x.args))
	for i, a := range x.args {
		v, err := e.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	fn, ok := builtins[x.fn]
	if !ok {
		return nil, rtErr(x, "unknown function %q", x.fn)
	}
	out, err := fn(e, args)
	if err != nil {
		return nil, rtErr(x, "%s: %v", x.fn, err)
	}
	return out, nil
}

// builtins is the function library available to scripts.
var builtins = map[string]func(e *env, args []any) (any, error){
	"len": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		switch v := args[0].(type) {
		case string:
			return float64(len(v)), nil
		case []any:
			return float64(len(v)), nil
		case map[string]any:
			return float64(len(v)), nil
		}
		return nil, fmt.Errorf("len of %s", typeOf(args[0]))
	},
	"keys": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		m, ok := args[0].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("keys of %s", typeOf(args[0]))
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]any, len(keys))
		for i, k := range keys {
			out[i] = k
		}
		return out, nil
	},
	"has": func(_ *env, args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		m, ok := args[0].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("has on %s", typeOf(args[0]))
		}
		key, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("has key must be a string")
		}
		_, present := m[key]
		return present, nil
	},
	"push": func(_ *env, args []any) (any, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("push needs an array and at least one value")
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, fmt.Errorf("push target must be an array, got %s", typeOf(args[0]))
		}
		if err := checkSize("array", (len(arr)+len(args)-1)*elemBytes); err != nil {
			return nil, err
		}
		return append(append([]any{}, arr...), args[1:]...), nil
	},
	"slice": func(_ *env, args []any) (any, error) {
		if err := arity(args, 3); err != nil {
			return nil, err
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, fmt.Errorf("slice target must be an array")
		}
		lo, ok1 := args[1].(float64)
		hi, ok2 := args[2].(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("slice bounds must be numbers")
		}
		i, j := int(lo), int(hi)
		if i < 0 || j > len(arr) || i > j {
			return nil, fmt.Errorf("slice bounds [%d:%d] out of range (len %d)", i, j, len(arr))
		}
		return append([]any{}, arr[i:j]...), nil
	},
	"range": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		n, ok := args[0].(float64)
		if !ok || n < 0 || n != math.Trunc(n) {
			return nil, fmt.Errorf("range needs a small non-negative integer")
		}
		if n > float64(maxValueBytes/elemBytes) {
			return nil, fmt.Errorf("range of %v elements exceeds the %d-byte value limit", n, maxValueBytes)
		}
		out := make([]any, int(n))
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	},
	"split": func(_ *env, args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		s, ok1 := args[0].(string)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("split needs two strings")
		}
		if err := checkSize("array", (strings.Count(s, sep)+1)*elemBytes); err != nil {
			return nil, err
		}
		parts := strings.Split(s, sep)
		out := make([]any, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	},
	"join": func(_ *env, args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		arr, ok1 := args[0].([]any)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("join needs an array and a string")
		}
		parts := make([]string, len(arr))
		size := max(len(arr)-1, 0) * len(sep)
		for i, v := range arr {
			var err error
			if parts[i], err = render(v, size); err != nil {
				return nil, err
			}
			size += len(parts[i])
		}
		if err := checkSize("string", size); err != nil {
			return nil, err
		}
		return strings.Join(parts, sep), nil
	},
	"trim": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("trim needs a string")
		}
		return strings.TrimSpace(s), nil
	},
	"contains": func(e *env, args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		switch coll := args[0].(type) {
		case string:
			sub, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("contains on a string needs a string")
			}
			return strings.Contains(coll, sub), nil
		case []any:
			w := equalWalk{e: e}
			for _, v := range coll {
				if eq, err := w.equal(v, args[1], 0); eq || err != nil {
					return eq, err
				}
			}
			return false, nil
		}
		return nil, fmt.Errorf("contains on %s", typeOf(args[0]))
	},
	"str": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		return render(args[0], 0)
	},
	"num": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		switch v := args[0].(type) {
		case float64:
			return v, nil
		case bool:
			if v {
				return 1.0, nil
			}
			return 0.0, nil
		case string:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g", &f); err != nil {
				return nil, fmt.Errorf("cannot parse %q as a number", v)
			}
			return f, nil
		}
		return nil, fmt.Errorf("num of %s", typeOf(args[0]))
	},
	"floor": numFn(math.Floor),
	"ceil":  numFn(math.Ceil),
	"round": numFn(math.Round),
	"abs":   numFn(math.Abs),
	"sqrt": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		f, ok := args[0].(float64)
		if !ok || f < 0 {
			return nil, fmt.Errorf("sqrt needs a non-negative number")
		}
		return math.Sqrt(f), nil
	},
	"min": foldFn("min", func(a, b float64) float64 { return math.Min(a, b) }),
	"max": foldFn("max", func(a, b float64) float64 { return math.Max(a, b) }),
	"sum": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, fmt.Errorf("sum needs an array")
		}
		total := 0.0
		for _, v := range arr {
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("sum over non-number %s", typeOf(v))
			}
			total += f
		}
		return total, nil
	},
	"sort": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, fmt.Errorf("sort needs an array")
		}
		out := append([]any{}, arr...)
		var sortErr error
		sort.SliceStable(out, func(i, j int) bool {
			switch a := out[i].(type) {
			case float64:
				b, ok := out[j].(float64)
				if !ok {
					sortErr = fmt.Errorf("mixed-type array")
					return false
				}
				return a < b
			case string:
				b, ok := out[j].(string)
				if !ok {
					sortErr = fmt.Errorf("mixed-type array")
					return false
				}
				return a < b
			default:
				sortErr = fmt.Errorf("cannot sort %s values", typeOf(out[i]))
				return false
			}
		})
		if sortErr != nil {
			return nil, sortErr
		}
		return out, nil
	},
	"format": func(_ *env, args []any) (any, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("format needs a format string")
		}
		f, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("format string must be a string")
		}
		n, err := formatBound(f, args[1:])
		if err == nil {
			err = checkSize("string", n)
		}
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf(f, args[1:]...), nil
	},
	"type": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		return typeOf(args[0]), nil
	},
	"parseJSON": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("parseJSON needs a string")
		}
		var out any
		if err := json.Unmarshal([]byte(s), &out); err != nil {
			return nil, err
		}
		return out, nil
	},
	"toJSON": func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		if _, err := textSize(args[0]); err != nil {
			return nil, err
		}
		data, err := json.Marshal(args[0])
		if err != nil {
			return nil, err
		}
		return string(data), nil
	},
}

func arity(args []any, n int) error {
	if len(args) != n {
		return fmt.Errorf("expected %d argument(s), got %d", n, len(args))
	}
	return nil
}

func numFn(f func(float64) float64) func(e *env, args []any) (any, error) {
	return func(_ *env, args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		v, ok := args[0].(float64)
		if !ok {
			return nil, fmt.Errorf("expected a number, got %s", typeOf(args[0]))
		}
		return f(v), nil
	}
}

func foldFn(name string, f func(a, b float64) float64) func(e *env, args []any) (any, error) {
	return func(_ *env, args []any) (any, error) {
		var nums []float64
		if len(args) == 1 {
			if arr, ok := args[0].([]any); ok {
				for _, v := range arr {
					fv, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("%s over non-number %s", name, typeOf(v))
					}
					nums = append(nums, fv)
				}
			}
		}
		if nums == nil {
			for _, v := range args {
				fv, ok := v.(float64)
				if !ok {
					return nil, fmt.Errorf("%s over non-number %s", name, typeOf(v))
				}
				nums = append(nums, fv)
			}
		}
		if len(nums) == 0 {
			return nil, fmt.Errorf("%s of empty sequence", name)
		}
		acc := nums[0]
		for _, v := range nums[1:] {
			acc = f(acc, v)
		}
		return acc, nil
	}
}

// Builtins returns the sorted names of the available builtin functions,
// used by documentation and the service web UI.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// formatBound bounds len(fmt.Sprintf(f, args...)) from above without
// formatting.  fmt pads every scalar an operand holds (a map's keys
// included) to the verb's width and precision, each of which it caps at
// 1e6; writes a string byte as at most five bytes (% #x); writes at most
// 48 bytes for any other scalar, error text (%!d(...), %!(NOVERB)) or
// separator, and 32 for a container's brackets and type (%#v); and appends
// unused operands as %!(EXTRA type=value).  An operand textSize refuses
// fails format too.
func formatBound(f string, args []any) (int, error) {
	shapes := make([]shape, len(args))
	total := len(f)
	for i, a := range args {
		if err := shapes[i].walk(a, 0); err != nil {
			return 0, err
		}
		total += 48 + shapes[i].bytes(48)
	}
	for i := 0; i < len(f) && total <= maxValueBytes; i++ {
		if f[i] != '%' {
			continue
		}
		total += 48
		// Flags, argument indexes, width and precision, then the verb.
		var num [2]int
		field := 0
		for i++; i < len(f) && strings.IndexByte("+-# 0123456789.[]*", f[i]) >= 0; i++ {
			switch c := f[i]; {
			case c == '.':
				field = 1
			case c == '[':
				for i < len(f) && f[i] != ']' {
					i++
				}
			case '0' <= c && c <= '9':
				num[field] = min(10*num[field]+int(c-'0'), 1e6)
			}
		}
		if i >= len(f) || f[i] == '%' {
			continue
		}
		perScalar := num[0] + num[1] + 48
		if f[i] == 'f' || f[i] == 'F' {
			perScalar += 310 // the integer digits of a float up to 1.8e308
		}
		widest := 0
		for _, sh := range shapes {
			widest = max(widest, sh.bytes(perScalar))
		}
		total += widest
	}
	return total, nil
}

// textSize bounds the length of v's JSON encoding and of its %v rendering,
// and fails once that passes maxValueBytes or v nests deeper than
// maxDepth.
func textSize(v any) (int, error) {
	var sh shape
	err := sh.walk(v, 0)
	return sh.text, err
}

// outputsFit fails where textSize(out) fails.  It first measures out with
// every number counted at maxNumberLen, which formats none of them, and
// runs the exact textSize only when that looser bound fails.  The loose
// text is never shorter than the exact one at any point of the walk, so
// it passes only where textSize passes.
func outputsFit(out map[string]any) error {
	loose := shape{loose: true}
	if loose.walk(out, 0) == nil {
		return nil
	}
	_, err := textSize(out)
	return err
}

// maxNumberLen is the longest numberLen of any float64: that of a
// negative number just above 1e-6 with 17 significant digits,
// "-0.0000012345678901234567".  Exponent forms are a byte shorter.
const maxNumberLen = 25

// shape is what the bounds need of a value: its scalars (map keys
// included), the bytes of its strings, its containers, and text, the
// longer of its JSON encoding and its %v rendering (strings quoted and
// escaped as encoding/json writes them; a map counts "map[]", %v's five
// bytes, for its braces).  A loose shape counts every number at
// maxNumberLen instead of its own length.
type shape struct {
	scalars, strBytes, containers, text int
	loose                               bool
}

// bytes bounds the operand's fmt rendering at perScalar bytes a scalar.
func (sh *shape) bytes(perScalar int) int {
	return sh.scalars*perScalar + 5*sh.strBytes + 32*sh.containers
}

// walk adds v to the shape.  It fails, and stops, once text passes
// maxValueBytes or v nests deeper than maxDepth.  Every value adds at
// least a byte of text, so a walk visits at most maxValueBytes values
// however often v shares its parts.
func (sh *shape) walk(v any, depth int) error {
	if depth > maxDepth {
		return errTooDeep
	}
	switch x := v.(type) {
	case string:
		sh.scalars++
		sh.strBytes += len(x)
		sh.text += quotedLen(x)
	case float64:
		sh.scalars++
		if sh.loose {
			sh.text += maxNumberLen
		} else {
			sh.text += numberLen(x)
		}
	case []any:
		sh.containers++
		sh.text += 2 + max(len(x)-1, 0)
		for _, e := range x {
			if err := sh.walk(e, depth+1); err != nil {
				return err
			}
		}
	case map[string]any:
		sh.containers++
		sh.text += 5 + max(len(x)-1, 0)
		for k, e := range x {
			sh.scalars++
			sh.strBytes += len(k)
			sh.text += quotedLen(k) + 1
			if err := sh.walk(e, depth+1); err != nil {
				return err
			}
		}
	default: // nil is "<nil>" inside a %v rendering, a bool at most "false"
		sh.scalars++
		sh.text += 5
	}
	if sh.text > maxValueBytes {
		return fmt.Errorf("text passes the %d-byte value limit", maxValueBytes)
	}
	return nil
}

// quotedLen is the length of s as encoding/json writes it: quoted, with
// <, > and & escaped, and invalid UTF-8 replaced.
func quotedLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t':
				n += 2
			case c < 0x20 || c == '<' || c == '>' || c == '&':
				n += 6
			default:
				n++
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			n += 6
		} else {
			n += size
		}
		i += size
	}
	return n
}

// numberLen is the longer of x as encoding/json writes it and as %v does.
func numberLen(x float64) int {
	var buf [32]byte
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	return max(len(strconv.AppendFloat(buf[:0], x, format, -1, 64)),
		len(strconv.AppendFloat(buf[:0], x, 'g', -1, 64)))
}
