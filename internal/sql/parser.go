package sql

import (
	"fmt"
	"strconv"
)

// Parse parses one SELECT of the supported dialect.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input")
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("sql: %s (near offset %d, token %q)", fmt.Sprintf(format, args...), t.pos, t.text)
}

func (p *parser) peekIs(word string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == word
}

func (p *parser) accept(word string) bool {
	if p.peekIs(word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(word string) error {
	if !p.accept(word) {
		return p.errf("expected %s", word)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

// ident consumes a non-keyword identifier.
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent || keywords[t.text] {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

// parseColRef parses ident [ "." ident ].
func (p *parser) parseColRef() (ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptSymbol(".") {
		second, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Col: second}, nil
	}
	return ColRef{Col: first}, nil
}

// parseExpr parses a column reference, literal, or aggregate.
func (p *parser) parseExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Expr{}, p.errf("bad number %q", t.text)
		}
		return Expr{IsNumber: true, Number: v}, nil
	case t.kind == tokString:
		p.pos++
		return Expr{IsString: true, Str: t.text}, nil
	case p.accept("NULL"):
		return Expr{IsNull: true}, nil
	case p.accept("COUNT"):
		if err := p.expectSymbol("("); err != nil {
			return Expr{}, err
		}
		if p.acceptSymbol("*") {
			if err := p.expectSymbol(")"); err != nil {
				return Expr{}, err
			}
			return Expr{Agg: aggCount}, nil
		}
		if err := p.expect("DISTINCT"); err != nil {
			return Expr{}, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return Expr{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return Expr{}, err
		}
		return Expr{Agg: aggCountDistinct, Col: col}, nil
	case p.peekIs("MIN") || p.peekIs("MAX") || p.peekIs("SUM"):
		kind := map[string]aggKind{"MIN": aggMin, "MAX": aggMax, "SUM": aggSum}[t.text]
		p.pos++
		if err := p.expectSymbol("("); err != nil {
			return Expr{}, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return Expr{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return Expr{}, err
		}
		return Expr{Agg: kind, Col: col}, nil
	default:
		col, err := p.parseColRef()
		if err != nil {
			return Expr{}, err
		}
		return Expr{Col: col}, nil
	}
}

// parseCondition parses expr cmp expr | expr IS [NOT] NULL.
func (p *parser) parseCondition() (Condition, error) {
	left, err := p.parseExpr()
	if err != nil {
		return Condition{}, err
	}
	if p.accept("IS") {
		not := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return Condition{}, err
		}
		return Condition{Left: left, IsNull: !not, NotNul: not}, nil
	}
	t := p.cur()
	if t.kind != tokCompare {
		return Condition{}, p.errf("expected comparison operator")
	}
	p.pos++
	right, err := p.parseExpr()
	if err != nil {
		return Condition{}, err
	}
	return Condition{Left: left, Op: CmpOp(t.text), Right: right}, nil
}

// parseConjunction parses cond (AND cond)*.
func (p *parser) parseConjunction() ([]Condition, error) {
	var out []Condition
	for {
		c, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if !p.accept("AND") {
			return out, nil
		}
	}
}

// parseTableRef parses ident [ [AS] ident ].
func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	p.accept("AS")
	if t := p.cur(); t.kind == tokIdent && !keywords[t.text] {
		p.pos++
		ref.Alias = t.text
	}
	return ref, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept("DISTINCT")

	for {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: expr}
		if p.accept("AS") {
			alias, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	s.From = from

	for p.accept("JOIN") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Table: ref, On: on})
	}

	if p.accept("WHERE") {
		w, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		h, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}
