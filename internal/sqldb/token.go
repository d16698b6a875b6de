package sqldb

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokParam // ?
	tokOp    // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // uppercase for keywords, raw for others
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "VIEW": true,
	"TRIGGER": true, "DROP": true, "IF": true, "EXISTS": true,
	"NOT": true, "NULL": true, "PRIMARY": true, "KEY": true,
	"AND": true, "OR": true, "IN": true, "LIKE": true, "IS": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "UNION": true, "ALL": true,
	"AS": true, "ON": true, "INSTEAD": true, "OF": true,
	"BEGIN": true, "END": true, "NEW": true, "OLD": true,
	"REPLACE": true, "JOIN": true, "LEFT": true, "OUTER": true,
	"INNER": true, "DEFAULT": true, "INTEGER": true, "TEXT": true,
	"REAL": true, "BLOB": true, "BOOLEAN": true, "DISTINCT": true,
	"GROUP": true, "HAVING": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "BETWEEN": true, "CAST": true,
	"TRANSACTION": true, "COMMIT": true, "ROLLBACK": true,
	"INDEX": true, "EXPLAIN": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning the token stream or a syntax error.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c == '"' || c == '`' || c == '[':
			s, err := l.lexQuotedIdent(c)
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: s, pos: start})
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexNumber(), pos: start})
		case isIdentStart(c):
			word := l.lexWord()
			upper := upperASCII(word)
			if keywords[upper] {
				l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
			}
		case c == '?':
			l.pos++
			l.toks = append(l.toks, token{kind: tokParam, text: "?", pos: start})
		default:
			op, err := l.lexOp()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokOp, text: op, pos: start})
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *lexer) lexString() (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("sqldb: unterminated string literal at %d", l.pos)
}

func (l *lexer) lexQuotedIdent(open byte) (string, error) {
	close := open
	if open == '[' {
		close = ']'
	}
	l.pos++
	start := l.pos
	for l.pos < len(l.src) {
		if l.src[l.pos] == close {
			s := l.src[start:l.pos]
			l.pos++
			return s, nil
		}
		l.pos++
	}
	return "", fmt.Errorf("sqldb: unterminated quoted identifier at %d", start)
}

// lexNumber reads SQLite's numeric literal: digits, an optional
// fraction, and an optional exponent ('e' or 'E', an optional sign,
// digits). An 'e' without exponent digits is left to the next token.
func (l *lexer) lexNumber() string {
	start := l.pos
	l.skipDigits()
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		l.skipDigits()
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		exp := l.pos + 1
		if exp < len(l.src) && (l.src[exp] == '+' || l.src[exp] == '-') {
			exp++
		}
		if exp < len(l.src) && isDigit(l.src[exp]) {
			l.pos = exp
			l.skipDigits()
		}
	}
	return l.src[start:l.pos]
}

func (l *lexer) skipDigits() {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
}

func isDigit(c byte) bool {
	return c >= '0' && c <= '9'
}

// upperASCII uppercases ASCII letters only. strings.ToUpper replaces
// invalid UTF-8 with U+FFFD, which would corrupt identifiers whose
// bytes >= 0x80 the lexer passes through verbatim; keywords and
// function names are all ASCII, so ASCII folding is sufficient.
func upperASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'a' && c <= 'z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'a' && b[j] <= 'z' {
					b[j] -= 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// Identifier bytes follow SQLite's rule: every byte >= 0x80 is an
// identifier character, with no UTF-8 decoding. Interpreting single
// bytes as runes (the old behavior) split multi-byte characters and
// mis-lexed both valid UTF-8 identifiers and raw byte soup.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) lexWord() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos]
}

var twoCharOps = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true, "==": true,
}

func (l *lexer) lexOp() (string, error) {
	if l.pos+1 < len(l.src) && twoCharOps[l.src[l.pos:l.pos+2]] {
		op := l.src[l.pos : l.pos+2]
		l.pos += 2
		return op, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ';', '=', '<', '>', '+', '-', '*', '/', '%', '.':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("sqldb: unexpected character %q at %d", c, l.pos)
}
