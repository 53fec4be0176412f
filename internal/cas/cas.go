// Package cas implements a small computer-algebra command language over
// exact rational matrices.  In the paper, the Maxima CAS is exposed as a
// computational web service and the distributed matrix-inversion workflow
// sends it symbolic commands; this package plays Maxima's role: a parsed,
// evaluated expression language (exact rational arithmetic, matrix
// operators and functions) fronted by the same kind of service.
//
// Grammar:
//
//	expr    := term (('+' | '-') term)*
//	term    := factor ('*' factor)*
//	factor  := '-' factor | postfix
//	postfix := primary ("'")*            (' is transpose)
//	primary := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
//
// Values are exact rational scalars or matrices.  Built-in functions:
// hilbert(n), identity(n), zeros(r, c), invert(M), transpose(M),
// submatrix(M, r0, r1, c0, c1), assemble(A, B, C, D), trace(M), det(M),
// rank(M), dim(M).
package cas

import (
	"fmt"
	"math/big"
	"strings"
	"unicode"

	"mathcloud/internal/ratmat"
)

// Value is a CAS value: a *big.Rat scalar or a *ratmat.Matrix.
type Value struct {
	Scalar *big.Rat
	Matrix *ratmat.Matrix
}

// IsScalar reports whether the value is a scalar.
func (v Value) IsScalar() bool { return v.Scalar != nil }

// String renders the value.
func (v Value) String() string {
	if v.IsScalar() {
		return v.Scalar.RatString()
	}
	return strings.TrimRight(v.Matrix.String(), "\n")
}

// Env binds free identifiers to values during evaluation.
type Env map[string]Value

// Error is a CAS parse or evaluation error with position information.
type Error struct {
	Pos     int
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("cas: at %d: %s", e.Pos, e.Message) }

func errAt(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Message: fmt.Sprintf(format, args...)}
}

// ---- lexer ----

type casTokKind int

const (
	casEOF casTokKind = iota
	casNum
	casIdent
	casOp
)

type casTok struct {
	kind casTokKind
	text string
	pos  int
}

func lex(src string) ([]casTok, error) {
	var toks []casTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '/' || src[i] == '.') {
				i++
			}
			toks = append(toks, casTok{casNum, src[start:i], start})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			toks = append(toks, casTok{casIdent, src[start:i], start})
		case strings.IndexByte("+-*()',", c) >= 0:
			toks = append(toks, casTok{casOp, string(c), i})
			i++
		default:
			return nil, errAt(i, "unexpected character %q", string(c))
		}
	}
	toks = append(toks, casTok{casEOF, "", len(src)})
	return toks, nil
}

// ---- parser / evaluator (direct interpretation) ----

type casParser struct {
	toks []casTok
	pos  int
	env  Env
}

// Eval parses and evaluates a CAS expression in the given environment.
func Eval(src string, env Env) (Value, error) {
	toks, err := lex(src)
	if err != nil {
		return Value{}, err
	}
	p := &casParser{toks: toks, env: env}
	v, err := p.expr()
	if err != nil {
		return Value{}, err
	}
	if t := p.peek(); t.kind != casEOF {
		return Value{}, errAt(t.pos, "unexpected %q after expression", t.text)
	}
	return v, nil
}

func (p *casParser) peek() casTok { return p.toks[p.pos] }

func (p *casParser) next() casTok {
	t := p.toks[p.pos]
	if t.kind != casEOF {
		p.pos++
	}
	return t
}

func (p *casParser) atOp(op string) bool {
	t := p.peek()
	return t.kind == casOp && t.text == op
}

func (p *casParser) expr() (Value, error) {
	left, err := p.term()
	if err != nil {
		return Value{}, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.next()
		right, err := p.term()
		if err != nil {
			return Value{}, err
		}
		left, err = apply2(op.text, left, right, op.pos)
		if err != nil {
			return Value{}, err
		}
	}
	return left, nil
}

func (p *casParser) term() (Value, error) {
	left, err := p.factor()
	if err != nil {
		return Value{}, err
	}
	for p.atOp("*") {
		op := p.next()
		right, err := p.factor()
		if err != nil {
			return Value{}, err
		}
		left, err = apply2("*", left, right, op.pos)
		if err != nil {
			return Value{}, err
		}
	}
	return left, nil
}

func (p *casParser) factor() (Value, error) {
	if p.atOp("-") {
		p.next()
		v, err := p.factor()
		if err != nil {
			return Value{}, err
		}
		if v.IsScalar() {
			return Value{Scalar: new(big.Rat).Neg(v.Scalar)}, nil
		}
		return Value{Matrix: v.Matrix.Neg()}, nil
	}
	return p.postfix()
}

func (p *casParser) postfix() (Value, error) {
	v, err := p.primary()
	if err != nil {
		return Value{}, err
	}
	for p.atOp("'") {
		t := p.next()
		if v.IsScalar() {
			return Value{}, errAt(t.pos, "cannot transpose a scalar")
		}
		v = Value{Matrix: v.Matrix.Transpose()}
	}
	return v, nil
}

func (p *casParser) primary() (Value, error) {
	t := p.next()
	switch {
	case t.kind == casNum:
		r, ok := new(big.Rat).SetString(t.text)
		if !ok {
			return Value{}, errAt(t.pos, "invalid number %q", t.text)
		}
		return Value{Scalar: r}, nil
	case t.kind == casIdent && p.atOp("("):
		p.next() // consume '('
		var args []Value
		for !p.atOp(")") {
			a, err := p.expr()
			if err != nil {
				return Value{}, err
			}
			args = append(args, a)
			if p.atOp(",") {
				p.next()
				continue
			}
			break
		}
		if !p.atOp(")") {
			return Value{}, errAt(p.peek().pos, "expected ')'")
		}
		p.next()
		return callFunc(t.text, args, t.pos)
	case t.kind == casIdent:
		v, ok := p.env[t.text]
		if !ok {
			return Value{}, errAt(t.pos, "undefined variable %q", t.text)
		}
		return v, nil
	case t.kind == casOp && t.text == "(":
		v, err := p.expr()
		if err != nil {
			return Value{}, err
		}
		if !p.atOp(")") {
			return Value{}, errAt(p.peek().pos, "expected ')'")
		}
		p.next()
		return v, nil
	default:
		return Value{}, errAt(t.pos, "unexpected %q", t.text)
	}
}

func apply2(op string, a, b Value, pos int) (Value, error) {
	switch {
	case a.IsScalar() && b.IsScalar():
		r := new(big.Rat)
		switch op {
		case "+":
			r.Add(a.Scalar, b.Scalar)
		case "-":
			r.Sub(a.Scalar, b.Scalar)
		case "*":
			r.Mul(a.Scalar, b.Scalar)
		}
		return Value{Scalar: r}, nil
	case op == "*" && a.IsScalar():
		return Value{Matrix: b.Matrix.Scale(a.Scalar)}, nil
	case op == "*" && b.IsScalar():
		return Value{Matrix: a.Matrix.Scale(b.Scalar)}, nil
	case !a.IsScalar() && !b.IsScalar():
		var m *ratmat.Matrix
		var err error
		switch op {
		case "+":
			m, err = a.Matrix.Add(b.Matrix)
		case "-":
			m, err = a.Matrix.Sub(b.Matrix)
		case "*":
			m, err = a.Matrix.Mul(b.Matrix)
		}
		if err != nil {
			return Value{}, errAt(pos, "%v", err)
		}
		return Value{Matrix: m}, nil
	default:
		return Value{}, errAt(pos, "operator %q between scalar and matrix", op)
	}
}

func callFunc(name string, args []Value, pos int) (Value, error) {
	scalarInt := func(i int) (int, error) {
		if i >= len(args) || !args[i].IsScalar() || !args[i].Scalar.IsInt() {
			return 0, errAt(pos, "%s: argument %d must be an integer", name, i+1)
		}
		return int(args[i].Scalar.Num().Int64()), nil
	}
	matrixArg := func(i int) (*ratmat.Matrix, error) {
		if i >= len(args) || args[i].IsScalar() {
			return nil, errAt(pos, "%s: argument %d must be a matrix", name, i+1)
		}
		return args[i].Matrix, nil
	}
	switch name {
	case "hilbert":
		n, err := scalarInt(0)
		if err != nil {
			return Value{}, err
		}
		if n <= 0 || n > 4096 {
			return Value{}, errAt(pos, "hilbert: order %d out of range", n)
		}
		return Value{Matrix: ratmat.Hilbert(n)}, nil
	case "identity":
		n, err := scalarInt(0)
		if err != nil {
			return Value{}, err
		}
		if n <= 0 || n > 4096 {
			return Value{}, errAt(pos, "identity: order %d out of range", n)
		}
		return Value{Matrix: ratmat.Identity(n)}, nil
	case "zeros":
		r, err := scalarInt(0)
		if err != nil {
			return Value{}, err
		}
		c, err := scalarInt(1)
		if err != nil {
			return Value{}, err
		}
		if r <= 0 || c <= 0 || r > 4096 || c > 4096 {
			return Value{}, errAt(pos, "zeros: shape %dx%d out of range", r, c)
		}
		return Value{Matrix: ratmat.New(r, c)}, nil
	case "invert":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		inv, err := m.Inverse()
		if err != nil {
			return Value{}, errAt(pos, "%v", err)
		}
		return Value{Matrix: inv}, nil
	case "transpose":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		return Value{Matrix: m.Transpose()}, nil
	case "submatrix":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		var idx [4]int
		for i := 0; i < 4; i++ {
			idx[i], err = scalarInt(i + 1)
			if err != nil {
				return Value{}, err
			}
		}
		sub, err := m.Submatrix(idx[0], idx[1], idx[2], idx[3])
		if err != nil {
			return Value{}, errAt(pos, "%v", err)
		}
		return Value{Matrix: sub}, nil
	case "assemble":
		var ms [4]*ratmat.Matrix
		var err error
		for i := 0; i < 4; i++ {
			ms[i], err = matrixArg(i)
			if err != nil {
				return Value{}, err
			}
		}
		out, err := ratmat.Assemble(ms[0], ms[1], ms[2], ms[3])
		if err != nil {
			return Value{}, errAt(pos, "%v", err)
		}
		return Value{Matrix: out}, nil
	case "det":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		d, err := m.Determinant()
		if err != nil {
			return Value{}, errAt(pos, "%v", err)
		}
		return Value{Scalar: d}, nil
	case "rank":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		return Value{Scalar: new(big.Rat).SetInt64(int64(m.Rank()))}, nil
	case "trace":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		if m.Rows() != m.Cols() {
			return Value{}, errAt(pos, "trace of non-square matrix")
		}
		tr := new(big.Rat)
		for i := 0; i < m.Rows(); i++ {
			tr.Add(tr, m.At(i, i))
		}
		return Value{Scalar: tr}, nil
	case "dim":
		m, err := matrixArg(0)
		if err != nil {
			return Value{}, err
		}
		return Value{Scalar: new(big.Rat).SetInt64(int64(m.Rows()))}, nil
	default:
		return Value{}, errAt(pos, "unknown function %q", name)
	}
}
