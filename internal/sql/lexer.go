// Package sql implements the SQL dialect ProbKB's grounding and
// quality-control queries are written in, as the read view of the
// relational model of Section 4.2 (T, TC, TR, FC, M1..M6 and the
// dictionaries DE/DC/DR). The paper expresses its whole inference
// algorithm as SQL over the facts and MLN tables (Figure 3 and Query 3);
// this package makes those queries *executable text* — the test suite
// runs Queries 1-i and 2-i and Query 3's violator subquery verbatim
// against the engine. Query 3's DELETE itself is the system's to run,
// and quality.Checker runs it as an engine plan; the dialect reads only.
//
// The dialect is the SELECT fragment those queries need:
//
//	SELECT [DISTINCT] expr [AS name], ... FROM t [alias]
//	       [JOIN t [alias] ON cond [AND cond]...]...
//	       [WHERE cond [AND cond]...]
//	       [GROUP BY col, ...] [HAVING cond [AND cond]...]
//	       [ORDER BY col [ASC|DESC], ...] [LIMIT n]
//
// with aggregates COUNT(*), COUNT(DISTINCT col), MIN, MAX, SUM;
// comparisons =, <>, <, <=, >, >=; NULL literals; and qualified column
// references. The planner (plan.go) compiles statements onto the
// engine's physical operators, turning equality conjuncts into hash-join
// keys the way a DBMS would.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // ( ) , . *
	tokCompare // = <> < <= > >=
)

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords the parser treats specially (matched case-insensitively;
// stored upper-case).
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "JOIN": true,
	"ON": true, "WHERE": true, "GROUP": true, "BY": true, "HAVING": true,
	"AND": true, "AS": true, "NULL": true,
	"COUNT": true, "MIN": true, "MAX": true, "SUM": true,
	"IS": true, "NOT": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
}

// lex splits a statement into tokens.
func lex(input string) ([]token, error) {
	var out []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			out = append(out, token{tokSymbol, string(c), i})
			i++
		case c == '=':
			out = append(out, token{tokCompare, "=", i})
			i++
		case c == '<':
			if i+1 < n && input[i+1] == '>' {
				out = append(out, token{tokCompare, "<>", i})
				i += 2
			} else if i+1 < n && input[i+1] == '=' {
				out = append(out, token{tokCompare, "<=", i})
				i += 2
			} else {
				out = append(out, token{tokCompare, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				out = append(out, token{tokCompare, ">=", i})
				i += 2
			} else {
				out = append(out, token{tokCompare, ">", i})
				i++
			}
		case c == '\'':
			j := i + 1
			for j < n && input[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", i)
			}
			out = append(out, token{tokString, input[i+1 : j], i})
			i = j + 1
		case unicode.IsDigit(c) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			j := i + 1
			for j < n && (unicode.IsDigit(rune(input[j])) || input[j] == '.' || input[j] == 'e' ||
				input[j] == 'E' || ((input[j] == '+' || input[j] == '-') && (input[j-1] == 'e' || input[j-1] == 'E'))) {
				j++
			}
			out = append(out, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < n && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			word := input[i:j]
			if keywords[strings.ToUpper(word)] {
				out = append(out, token{tokIdent, strings.ToUpper(word), i})
			} else {
				out = append(out, token{tokIdent, word, i})
			}
			i = j
		case c == ';':
			i++ // trailing semicolons are allowed and ignored
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{tokEOF, "", n})
	return out, nil
}
