package script

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	// writesIn records whether any assignment or loop binding may write
	// through `in` (see writesThrough).
	writesIn bool
}

// Parse compiles MCScript source into an executable Program.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	block, err := p.parseStmts(func() bool { return p.peek().kind == tokEOF })
	if err != nil {
		return nil, err
	}
	return &Program{body: block, src: src, writesIn: p.writesIn}, nil
}

// writesThrough reports whether assigning to target may write into a value
// reachable from `in`.  Builtins never mutate their arguments, so only an
// assignment can.  Setting a field or index of the bare `out` is safe while
// `out` is the run's own fresh object; any other field or index target may
// be an alias of (part of) `in`, and rebinding `out` makes every later
// `out.f = ...` one too.  A loop variable named `out` rebinds it as well,
// which parseFor reports.
func writesThrough(target node) bool {
	switch t := target.(type) {
	case *exprIdent:
		return t.name == "out"
	case *exprField:
		return !isOut(t.object)
	case *exprIndex:
		return !isOut(t.object)
	}
	return true
}

func isOut(n node) bool {
	id, ok := n.(*exprIdent)
	return ok && id.name == "out"
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &SyntaxError{Line: t.line, Col: t.col, Message: fmt.Sprintf(format, args...)}
}

func (p *parser) expectOp(op string) (token, error) {
	t := p.next()
	if t.kind != tokOp || t.text != op {
		return t, p.errorf(t, "expected %q, got %s", op, t)
	}
	return t, nil
}

func (p *parser) atOp(op string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == op
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) parseStmts(done func() bool) (*stmtBlock, error) {
	start := p.peek()
	block := &stmtBlock{position: position{start.line, start.col}}
	for !done() {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		block.stmts = append(block.stmts, s)
		// Optional statement separator.
		for p.atOp(";") {
			p.next()
		}
	}
	return block, nil
}

func (p *parser) parseBlock() (*stmtBlock, error) {
	if _, err := p.expectOp("{"); err != nil {
		return nil, err
	}
	block, err := p.parseStmts(func() bool { return p.atOp("}") || p.peek().kind == tokEOF })
	if err != nil {
		return nil, err
	}
	if _, err := p.expectOp("}"); err != nil {
		return nil, err
	}
	return block, nil
}

func (p *parser) parseStmt() (node, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "if":
		return p.parseIf()
	case t.kind == tokKeyword && t.text == "for":
		return p.parseFor()
	case t.kind == tokKeyword && t.text == "while":
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &stmtWhile{position{t.line, t.col}, cond, body}, nil
	case t.kind == tokKeyword && t.text == "return":
		p.next()
		var val node
		if !p.atOp(";") && !p.atOp("}") && p.peek().kind != tokEOF {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			val = v
		}
		return &stmtReturn{position{t.line, t.col}, val}, nil
	case t.kind == tokKeyword && t.text == "break":
		p.next()
		return &stmtBreak{position{t.line, t.col}}, nil
	case t.kind == tokKeyword && t.text == "continue":
		p.next()
		return &stmtContinue{position{t.line, t.col}}, nil
	}
	// Expression or assignment.
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.atOp("=") {
		eq := p.next()
		switch expr.(type) {
		case *exprIdent, *exprField, *exprIndex:
		default:
			return nil, p.errorf(eq, "invalid assignment target")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.writesIn = p.writesIn || writesThrough(expr)
		line, col := expr.pos()
		return &stmtAssign{position{line, col}, expr, val}, nil
	}
	line, col := expr.pos()
	return &stmtExpr{position{line, col}, expr}, nil
}

func (p *parser) parseIf() (node, error) {
	t := p.next() // 'if'
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &stmtIf{position{t.line, t.col}, cond, then, nil}
	if p.atKeyword("else") {
		p.next()
		if p.atKeyword("if") {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			stmt.els = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			stmt.els = els
		}
	}
	return stmt, nil
}

func (p *parser) parseFor() (node, error) {
	t := p.next() // 'for'
	first, err := p.loopVar()
	if err != nil {
		return nil, err
	}
	keyVar, valVar := "", first
	if p.atOp(",") {
		p.next()
		second, err := p.loopVar()
		if err != nil {
			return nil, err
		}
		keyVar, valVar = first, second
	}
	inTok := p.next()
	if inTok.kind != tokIdent || inTok.text != "in" {
		return nil, p.errorf(inTok, "expected 'in', got %s", inTok)
	}
	seq, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &stmtFor{position{t.line, t.col}, keyVar, valVar, seq, body}, nil
}

// loopVar reads one loop variable name.  The inputs object cannot be
// rebound, as `in = ...` cannot; binding `out` rebinds the outputs object
// (see writesThrough).
func (p *parser) loopVar() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errorf(t, "expected loop variable, got %s", t)
	}
	if t.text == "in" {
		return "", p.errorf(t, "cannot bind the inputs object as a loop variable")
	}
	if t.text == "out" {
		p.writesIn = true
	}
	return t.text, nil
}

// Expression parsing with precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) parseExpr() (node, error) {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return left, nil
		}
		prec, ok := binaryPrec[t.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		line, col := left.pos()
		left = &exprBinary{position{line, col}, t.text, left, right}
	}
}

func (p *parser) parseUnary() (node, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "-" || t.text == "!") {
		p.next()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &exprUnary{position{t.line, t.col}, t.text, operand}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (node, error) {
	expr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("."):
			p.next()
			name := p.next()
			if name.kind != tokIdent && name.kind != tokKeyword {
				return nil, p.errorf(name, "expected field name, got %s", name)
			}
			line, col := expr.pos()
			expr = &exprField{position{line, col}, expr, name.text}
		case p.atOp("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectOp("]"); err != nil {
				return nil, err
			}
			line, col := expr.pos()
			expr = &exprIndex{position{line, col}, expr, idx}
		case p.atOp("("):
			ident, ok := expr.(*exprIdent)
			if !ok {
				t := p.peek()
				return nil, p.errorf(t, "only named builtin functions can be called")
			}
			p.next()
			var args []node
			for !p.atOp(")") {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.atOp(",") {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expectOp(")"); err != nil {
				return nil, err
			}
			expr = &exprCall{position{ident.line, ident.col}, ident.name, args}
		default:
			return expr, nil
		}
	}
}

func (p *parser) parsePrimary() (node, error) {
	t := p.next()
	pos := position{t.line, t.col}
	switch {
	case t.kind == tokNumber:
		return &exprLiteral{pos, t.num}, nil
	case t.kind == tokString:
		return &exprLiteral{pos, t.str}, nil
	case t.kind == tokKeyword && t.text == "true":
		return &exprLiteral{pos, true}, nil
	case t.kind == tokKeyword && t.text == "false":
		return &exprLiteral{pos, false}, nil
	case t.kind == tokKeyword && t.text == "null":
		return &exprLiteral{pos, nil}, nil
	case t.kind == tokIdent:
		return &exprIdent{pos, t.text}, nil
	case t.kind == tokOp && t.text == "(":
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr, nil
	case t.kind == tokOp && t.text == "[":
		arr := &exprArray{position: pos}
		for !p.atOp("]") {
			elem, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			arr.elems = append(arr.elems, elem)
			if p.atOp(",") {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expectOp("]"); err != nil {
			return nil, err
		}
		return arr, nil
	case t.kind == tokOp && t.text == "{":
		obj := &exprObject{position: pos}
		for !p.atOp("}") {
			key := p.next()
			var keyStr string
			switch {
			case key.kind == tokIdent || key.kind == tokKeyword:
				keyStr = key.text
			case key.kind == tokString:
				keyStr = key.str
			default:
				return nil, p.errorf(key, "expected object key, got %s", key)
			}
			if _, err := p.expectOp(":"); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			obj.keys = append(obj.keys, keyStr)
			obj.values = append(obj.values, val)
			if p.atOp(",") {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expectOp("}"); err != nil {
			return nil, err
		}
		return obj, nil
	default:
		return nil, p.errorf(t, "unexpected token %s", t)
	}
}
