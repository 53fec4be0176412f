package script

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
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
	case "==":
		return jsonEqual(left, right), nil
	case "!=":
		return !jsonEqual(left, right), nil
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
			return ls + stringify(right), nil
		}
		if la, ok := left.([]any); ok {
			if ra, ok := right.([]any); ok {
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

func jsonEqual(a, b any) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !jsonEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			if bvv, ok := bv[k]; !ok || !jsonEqual(v, bvv) {
				return false
			}
		}
		return true
	}
	return false
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
	out, err := fn(args)
	if err != nil {
		return nil, rtErr(x, "%s: %v", x.fn, err)
	}
	return out, nil
}

// builtins is the function library available to scripts.
var builtins = map[string]func(args []any) (any, error){
	"len": func(args []any) (any, error) {
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
	"keys": func(args []any) (any, error) {
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
	"has": func(args []any) (any, error) {
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
	"push": func(args []any) (any, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("push needs an array and at least one value")
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, fmt.Errorf("push target must be an array, got %s", typeOf(args[0]))
		}
		return append(append([]any{}, arr...), args[1:]...), nil
	},
	"slice": func(args []any) (any, error) {
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
	"range": func(args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		n, ok := args[0].(float64)
		if !ok || n < 0 || n != math.Trunc(n) || n > 1e7 {
			return nil, fmt.Errorf("range needs a small non-negative integer")
		}
		out := make([]any, int(n))
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	},
	"split": func(args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		s, ok1 := args[0].(string)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("split needs two strings")
		}
		parts := strings.Split(s, sep)
		out := make([]any, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	},
	"join": func(args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		arr, ok1 := args[0].([]any)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("join needs an array and a string")
		}
		parts := make([]string, len(arr))
		for i, v := range arr {
			parts[i] = stringify(v)
		}
		return strings.Join(parts, sep), nil
	},
	"trim": func(args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("trim needs a string")
		}
		return strings.TrimSpace(s), nil
	},
	"contains": func(args []any) (any, error) {
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
			for _, v := range coll {
				if jsonEqual(v, args[1]) {
					return true, nil
				}
			}
			return false, nil
		}
		return nil, fmt.Errorf("contains on %s", typeOf(args[0]))
	},
	"str": func(args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		return stringify(args[0]), nil
	},
	"num": func(args []any) (any, error) {
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
	"sqrt": func(args []any) (any, error) {
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
	"sum": func(args []any) (any, error) {
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
	"sort": func(args []any) (any, error) {
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
	"format": func(args []any) (any, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("format needs a format string")
		}
		f, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("format string must be a string")
		}
		return fmt.Sprintf(f, args[1:]...), nil
	},
	"type": func(args []any) (any, error) {
		if err := arity(args, 1); err != nil {
			return nil, err
		}
		return typeOf(args[0]), nil
	},
	"parseJSON": func(args []any) (any, error) {
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
	"toJSON": func(args []any) (any, error) {
		if err := arity(args, 1); err != nil {
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

func numFn(f func(float64) float64) func(args []any) (any, error) {
	return func(args []any) (any, error) {
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

func foldFn(name string, f func(a, b float64) float64) func(args []any) (any, error) {
	return func(args []any) (any, error) {
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
