package sqldb

import (
	"strconv"
	"strings"
)

// Statement normalization: the token-level half of the prepared-
// statement layer. Literals in a statement are replaced by ?
// parameters and extracted as bind values, so "WHERE v = 1" and
// "WHERE v = 2" share one canonical text, one compiled batch, and
// therefore every memo hung off it (bindings, lock plans). This is the moral equivalent of
// what SQLite callers get by writing ? themselves — content providers
// that interpolate literals (common in real apps) now reuse plans
// instead of defeating every cache.
//
// Normalization refuses (returns ok=false, caller parses the raw
// tokens) rather than risk changing semantics:
//
//   - The statement already contains user ? parameters. Mixing
//     extracted literals with user-bound values would renumber the
//     user's placeholders; argument-count errors must also keep
//     referring to the SQL the caller wrote.
//   - A number literal does not parse the way the parser would parse
//     it (overflow); the raw parse owns the error message.
//
// Literals are kept inline (position skipped, statement still
// normalized) when parameterizing would change meaning:
//
//   - Inside ORDER BY and GROUP BY clauses, where a bare integer is a
//     1-based output-column ordinal, not a value ("ORDER BY 2" sorts
//     by the second column; "ORDER BY ?" would sort by a constant).
//   - Anywhere in a CREATE or DROP statement: column DEFAULTs must
//     stay in the catalog, and trigger bodies execute long after the
//     binding args are gone.
type normalized struct {
	text string  // canonical statement text, the cache/display key
	toks []token // the token stream with literals replaced by ?
	lits []Value // extracted literal values, in placeholder order
}

// normalizeTokens rewrites a lexed statement batch into normalized
// form. ok=false means the batch must be parsed from the raw tokens.
func normalizeTokens(src []token) (*normalized, bool) {
	for _, t := range src {
		if t.kind == tokParam {
			return nil, false
		}
	}
	toks := make([]token, len(src))
	copy(toks, src)

	var lits []Value
	depth := 0        // paren nesting
	atStart := true   // at the start of a statement
	skipStmt := false // inside a CREATE/DROP statement: literals stay inline
	beginDepth := 0   // BEGIN..END nesting of a trigger body being skipped
	caseDepth := 0    // CASE..END nesting (so its END doesn't close BEGIN)
	inOrdinal := false
	ordinalDepth := 0 // depth at which the ORDER BY/GROUP BY clause began

	for i := range toks {
		t := &toks[i]
		if t.kind == tokEOF {
			break
		}
		nextStart := false
		switch t.kind {
		case tokOp:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if inOrdinal && depth < ordinalDepth {
					inOrdinal = false
				}
			case ";":
				if depth == 0 && beginDepth == 0 {
					skipStmt = false
					inOrdinal = false
					caseDepth = 0
					nextStart = true
				}
			}
		case tokKeyword:
			switch t.text {
			case "CREATE", "DROP":
				if atStart {
					skipStmt = true
				}
			case "BEGIN":
				if skipStmt {
					beginDepth++
				}
			case "CASE":
				caseDepth++
			case "END":
				if caseDepth > 0 {
					caseDepth--
				} else if beginDepth > 0 {
					beginDepth--
				}
			case "ORDER", "GROUP":
				if i+1 < len(toks) && toks[i+1].kind == tokKeyword && toks[i+1].text == "BY" {
					inOrdinal = true
					ordinalDepth = depth
				}
			case "HAVING", "LIMIT", "OFFSET", "UNION", "SELECT", "FROM", "WHERE":
				if inOrdinal && depth == ordinalDepth {
					inOrdinal = false
				}
			case "EXPLAIN":
				// EXPLAIN prefixes a statement; CREATE/DROP detection
				// still applies to what follows.
				nextStart = atStart
			}
		case tokNumber:
			if !skipStmt && !inOrdinal {
				v, ok := numberValue(t.text)
				if !ok {
					return nil, false
				}
				lits = append(lits, v)
				*t = token{kind: tokParam, text: "?", pos: t.pos}
			}
		case tokString:
			if !skipStmt && !inOrdinal {
				lits = append(lits, t.text)
				*t = token{kind: tokParam, text: "?", pos: t.pos}
			}
		}
		atStart = nextStart
	}

	text, ok := renderTokens(toks)
	if !ok {
		return nil, false
	}
	return &normalized{text: text, toks: toks, lits: lits}, true
}

// numberValue converts a number token, for the parser and the
// normalizer alike: int64 unless a decimal point or an exponent is
// present. A value out of range is refused.
func numberValue(text string) (Value, bool) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, false
		}
		return f, true
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, false
	}
	return n, true
}

// renderTokens produces the canonical statement text: tokens joined by
// single spaces, keywords already upper-folded by the lexer, strings
// re-quoted, identifiers quoted only when a bare spelling would
// re-lex differently.
func renderTokens(toks []token) (string, bool) {
	var b strings.Builder
	first := true
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		switch t.kind {
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
		case tokIdent:
			if identNeedsQuote(t.text) {
				if strings.Contains(t.text, `"`) {
					// No escape for a double quote inside a quoted
					// identifier; leave this statement un-normalized.
					return "", false
				}
				b.WriteByte('"')
				b.WriteString(t.text)
				b.WriteByte('"')
			} else {
				b.WriteString(t.text)
			}
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), true
}

// identNeedsQuote reports whether an identifier must be quoted to
// survive a round trip through the lexer.
func identNeedsQuote(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return true
	}
	for i := 1; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return true
		}
	}
	return keywords[upperASCII(s)]
}
