// Package sqldb implements a small in-memory SQL database engine with
// SQLite-flavored semantics: dynamically typed values, integer primary
// keys, SQL views (including compound UNION ALL views), INSTEAD OF
// triggers on views, and a query planner that merges views (single-core
// and UNION ALL) into the queries that read them.
//
// It exists to host Maxoid's copy-on-write proxy layer (paper §5.2):
// the proxy is expressed entirely in terms of these SQL constructs, so
// reproducing them faithfully — including SQLite 3.8.6's restriction
// that flattening a UNION ALL view under an ORDER BY requires the ORDER
// BY columns to be a subset of the selected columns (footnote 5) — is
// what makes the proxy's performance behavior reproducible.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a dynamically typed SQL value: nil, int64, float64, string,
// []byte, or bool. The engine normalizes int/bool inputs on entry.
type Value interface{}

// normalize converts convenience Go types to the engine's canonical set.
func normalize(v Value) Value {
	switch x := v.(type) {
	case nil:
		return nil
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case int64, float64, string, []byte:
		return x
	case bool:
		if x {
			return int64(1)
		}
		return int64(0)
	case float32:
		return float64(x)
	default:
		return fmt.Sprint(x)
	}
}

// isNumeric reports whether v is an int64 or float64.
func isNumeric(v Value) bool {
	switch v.(type) {
	case int64, float64:
		return true
	}
	return false
}

// asFloat coerces a numeric value to float64.
func asFloat(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// AsInt coerces v to an int64 using SQLite-like affinity rules.
func AsInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	case string:
		n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// AsString renders v as a string (SQLite CAST TO TEXT semantics).
func AsString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case []byte:
		return string(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// truthy implements SQL boolean coercion: NULL and 0 are false.
func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		n, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return err == nil && n != 0
	case []byte:
		return len(x) > 0
	}
	return false
}

// compare orders two values with NULL < numbers < text < blob, matching
// SQLite's cross-type ordering. Returns -1, 0, or 1.
func compare(a, b Value) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric
		fa, fb := asFloat(a), asFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	case 2: // both text
		return strings.Compare(AsString(a), AsString(b))
	default: // blobs
		return strings.Compare(string(a.([]byte)), string(b.([]byte)))
	}
}

func typeRank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case int64, float64:
		return 1
	case string:
		return 2
	default:
		return 3
	}
}

// valuesEqual implements the SQL = operator (NULL = anything is NULL,
// handled by the caller; here NULLs compare equal for IN-list support).
func valuesEqual(a, b Value) bool {
	return compare(a, b) == 0
}

// likeMatch implements the SQL LIKE operator with % and _ wildcards,
// case-insensitive as in SQLite's default collation for ASCII.
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
