package serve

// The POST /v1/predict and /v1/ingest bodies are decoded by hand, in one
// pass over the request bytes, instead of through reflection-driven
// encoding/json. The body is read once into a buffer sized from
// Content-Length and converted to a string once; every unescaped string
// value is a substring of it, and the string arrays of a request are
// carved out of one backing []string (values_rows' rows out of one
// backing [][]string), so a bulk predict costs a constant handful of
// allocations whatever its row count.
//
// The decoder is strict and accepts exactly what encoding/json's
// Decoder.Decode followed by an io.EOF-returning second Decode accepted,
// decoding each body to the same struct (FuzzPredictRequest and
// FuzzIngestRequest hold it to that):
//   - RFC 8259 grammar, nesting capped at encoding/json's 10000 levels;
//   - \uXXXX escapes with surrogate pairs, a lone surrogate and every
//     invalid UTF-8 byte becoming U+FFFD;
//   - keys matched case-insensitively (strings.EqualFold, the Unicode
//     simple folding encoding/json uses), a repeated key decoding into the
//     value the earlier one left (see array);
//   - null leaving a string, bool or struct as it is and resetting a slice
//     or map to nil, except a map value, which null sets to "";
//   - unknown keys validated and skipped;
//   - any other type where a field wants a string, bool, array or object is
//     an error, as is anything but whitespace after the document.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a body nested deeper is
// rejected here as it was there.
const maxDepth = 10000

// errTrailing rejects a body with more than whitespace after its document.
var errTrailing = errors.New("trailing data after JSON body")

// readBody reads the whole request body under the predict body cap into
// one buffer sized from Content-Length and returns it as a string,
// answering 413 past the cap. It reports whether the caller may proceed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, rs *routeStats) (string, bool) {
	limit := s.predictMaxBytes()
	if r.ContentLength > limit {
		writeErr(w, rs, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return "", false
	}
	size := r.ContentLength + 1 // room to read io.EOF without growing
	if r.ContentLength < 0 {
		size = 512
	}
	buf := make([]byte, 0, size)
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return string(buf), true
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeErr(w, rs, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			} else {
				writeErr(w, rs, http.StatusBadRequest, "reading request: %v", err)
			}
			return "", false
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodePredict decodes a POST /v1/predict body into req.
func decodePredict(body string, req *predictRequest) error {
	d := &decoder{s: body}
	_, err := d.object(func(key string) error {
		switch {
		case match(key, "values_rows"):
			return d.stringRows(&req.ValuesRows)
		case match(key, "values"):
			return d.strings(&req.Values)
		case match(key, "row"):
			return d.stringMap(&req.Row)
		case match(key, "rows"):
			return d.stringMaps(&req.Rows)
		case match(key, "model"):
			return d.stringValue(&req.Model)
		case match(key, "no_batch"):
			return d.boolValue(&req.NoBatch)
		}
		return d.skip()
	})
	return d.end(err)
}

// decodeIngest decodes a POST /v1/ingest body into req.
func decodeIngest(body string, req *ingestRequest) error {
	d := &decoder{s: body}
	_, err := d.object(func(key string) error {
		switch {
		case match(key, "values"):
			return d.strings(&req.Values)
		case match(key, "class"):
			return d.stringValue(&req.Class)
		case match(key, "rows"):
			return d.ingestRows(&req.Rows)
		case match(key, "model"):
			return d.stringValue(&req.Model)
		}
		return d.skip()
	})
	return d.end(err)
}

// match reports whether a body key names a field, as encoding/json
// matches them.
func match(key, name string) bool { return key == name || strings.EqualFold(key, name) }

// decoder is one pass over one request body.
type decoder struct {
	s     string
	i     int // read offset into s
	depth int // open arrays and objects at i
	// strs and rows are the arenas fresh string arrays and values_rows
	// arrays are carved from, allocated on first use. Their capacities
	// come from counting the body's bytes: a string token has two quotes,
	// and a row has a '[' and (unless it is empty or all null) a string.
	// An array that outgrows its arena still decodes, by appending.
	strs []string
	rows [][]string
	buf  []byte // scratch for strings that need unescaping
}

// end finishes the document: only whitespace may follow it.
func (d *decoder) end(err error) error {
	if err != nil {
		return err
	}
	d.ws()
	if d.i != len(d.s) {
		return errTrailing
	}
	return nil
}

func (d *decoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte.
func (d *decoder) peek() (byte, error) {
	d.ws()
	if d.i == len(d.s) {
		return 0, d.eof()
	}
	return d.s[d.i], nil
}

// enter starts a value that must be the array or object opened by open:
// true with d inside it, or false after a null.
func (d *decoder) enter(open byte) (bool, error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c == open:
		return true, d.open()
	case c == 'n':
		return false, d.lit("null")
	case open == '{':
		return false, d.mismatch(c, "object")
	}
	return false, d.mismatch(c, "array")
}

// open consumes the '{' or '[' at d.i.
func (d *decoder) open() error {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// more reports whether the array or object whose opening bracket was
// consumed has an n-th element (counting from 0), consuming the comma
// before it or the closing bracket after the last one.
func (d *decoder) more(close byte, n int) (bool, error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c == close:
		d.i++
		d.depth--
		return false, nil
	case n == 0:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	}
	return false, d.errorf("invalid character %q after element", c)
}

// object decodes an object-typed value, calling member with each key and
// d at that member's value. It reports false for a null, which leaves the
// destination to the caller.
func (d *decoder) object(member func(key string) error) (bool, error) {
	if ok, err := d.enter('{'); !ok || err != nil {
		return false, err
	}
	for n := 0; ; n++ {
		more, err := d.more('}', n)
		if !more || err != nil {
			return true, err
		}
		if c, err := d.peek(); err != nil {
			return true, err
		} else if c != '"' {
			return true, d.errorf("invalid character %q looking for beginning of object key string", c)
		}
		key, err := d.str()
		if err != nil {
			return true, err
		}
		if c, err := d.peek(); err != nil {
			return true, err
		} else if c != ':' {
			return true, d.errorf("invalid character %q after object key", c)
		}
		d.i++
		if err := member(key); err != nil {
			return true, err
		}
	}
}

// array decodes an array-typed value into dst, each element by elem, with
// encoding/json's rules for a slice that may hold an earlier value of the
// key: element i decodes over dst[i] while i < len(dst); past that the
// slice lengthens within its capacity when it has room, exposing what an
// earlier, longer value left there, and grows otherwise. A null element
// therefore leaves what it lands on, and an object element adds to it.
// The result is cut to the array's length, an empty array being an empty,
// non-nil slice. A fresh array (dst has no capacity) grows in arena's free
// tail when arena is given.
func array[T any](d *decoder, dst []T, arena *[]T, elem func(*decoder, *T) error) ([]T, error) {
	if ok, err := d.enter('['); !ok || err != nil {
		return nil, err
	}
	fresh := arena != nil && cap(dst) == 0
	if fresh {
		dst = (*arena)[len(*arena):]
	}
	n := 0
	for ; ; n++ {
		more, err := d.more(']', n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		switch {
		case n < len(dst):
		case n < cap(dst):
			dst = dst[:n+1]
		default:
			var zero T
			dst = append(dst, zero)
		}
		if err := elem(d, &dst[n]); err != nil {
			return nil, err
		}
	}
	switch {
	case n == 0:
		return []T{}, nil
	case fresh:
		// An array that outgrew the arena moved out of it; the arena is
		// then spent, so no later array can see its writes.
		*arena = (*arena)[:len(*arena)+min(n, cap(*arena)-len(*arena))]
		return dst[:n:n], nil
	}
	return dst[:n], nil
}

// stringValue decodes a string into *dst; null leaves it as it is.
func (d *decoder) stringValue(dst *string) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == '"':
		*dst, err = d.str()
		return err
	case c == 'n':
		return d.lit("null")
	}
	return d.mismatch(c, "string")
}

// boolValue decodes a bool into *dst; null leaves it as it is.
func (d *decoder) boolValue(dst *bool) error {
	c, err := d.peek()
	switch {
	case err != nil:
		return err
	case c == 't':
		*dst = true
		return d.lit("true")
	case c == 'f':
		*dst = false
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	}
	return d.mismatch(c, "bool")
}

// strings decodes an array of strings into *dst, a fresh one in the d.strs
// arena.
func (d *decoder) strings(dst *[]string) (err error) {
	if d.strs == nil {
		d.strs = make([]string, 0, strings.Count(d.s, `"`)/2)
	}
	*dst, err = array(d, *dst, &d.strs, (*decoder).stringValue)
	return err
}

// stringRows decodes values_rows, an array of string arrays, into *dst, a
// fresh one in the d.rows arena.
func (d *decoder) stringRows(dst *[][]string) (err error) {
	if d.rows == nil {
		d.rows = make([][]string, 0, min(strings.Count(d.s, "["), strings.Count(d.s, `"`)/2))
	}
	*dst, err = array(d, *dst, &d.rows, (*decoder).strings)
	return err
}

// stringMap decodes an object of strings into *dst, adding to the map an
// earlier value of the key left; a null member value is "".
func (d *decoder) stringMap(dst *map[string]string) error {
	if c, _ := d.peek(); c == '{' && *dst == nil {
		*dst = make(map[string]string)
	}
	ok, err := d.object(func(key string) error {
		var v string
		err := d.stringValue(&v)
		(*dst)[key] = v
		return err
	})
	if !ok && err == nil {
		*dst = nil
	}
	return err
}

// stringMaps decodes the rows form, an array of string objects, into *dst.
func (d *decoder) stringMaps(dst *[]map[string]string) (err error) {
	*dst, err = array(d, *dst, nil, (*decoder).stringMap)
	return err
}

// ingestRows decodes the bulk ingest form into *dst.
func (d *decoder) ingestRows(dst *[]ingestRow) (err error) {
	*dst, err = array(d, *dst, nil, (*decoder).ingestRow)
	return err
}

// ingestRow decodes one bulk ingest row into *row; null leaves it as it is.
func (d *decoder) ingestRow(row *ingestRow) error {
	_, err := d.object(func(key string) error {
		switch {
		case match(key, "values"):
			return d.strings(&row.Values)
		case match(key, "class"):
			return d.stringValue(&row.Class)
		}
		return d.skip()
	})
	return err
}

// skip validates and skips one value of any type.
func (d *decoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, err = d.str()
		return err
	case c == '{':
		_, err = d.object(func(string) error { return d.skip() })
		return err
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := d.more(']', n)
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return d.errorf("invalid character %q looking for beginning of value", c)
}

// lit consumes the literal word at d.i.
func (d *decoder) lit(word string) error {
	if !strings.HasPrefix(d.s[d.i:], word) {
		return d.errorf("invalid literal, want %s", word)
	}
	d.i += len(word)
	return nil
}

// number consumes a number at d.i:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	s, i := d.s, d.i
	if s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if i = digits(s, i); i < 0 {
		return d.badNumber()
	}
	if i < len(s) && s[i] == '.' {
		if i = digits(s, i+1); i < 0 {
			return d.badNumber()
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i = digits(s, i); i < 0 {
			return d.badNumber()
		}
	}
	d.i = i
	return nil
}

// digits returns the end of the run of one or more digits at s[i:], or -1
// when there is none.
func digits(s string, i int) int {
	j := i
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *decoder) badNumber() error { return d.errorf("invalid number") }

// str consumes the string at d.i and returns it unescaped. A string
// without escapes or invalid UTF-8 — every value a benchmark body holds —
// is returned as a substring of the body.
func (d *decoder) str() (string, error) {
	s := d.s
	start := d.i + 1
	for i := start; i < len(s); {
		if plain[s[i]] {
			i++
			continue
		}
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return s[start:i], nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return d.unescape(start, i)
		}
		i += size
	}
	return "", d.eof()
}

// plain marks the bytes a string holds as they are: printable ASCII but
// '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes the string that opened at start, whose bytes before i
// are taken as they are, decoding escapes and coercing invalid UTF-8 to
// U+FFFD as encoding/json does.
func (d *decoder) unescape(start, i int) (string, error) {
	s := d.s
	b := append(d.buf[:0], s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			d.buf = b
			return string(b), nil
		case c == '\\':
			if i+1 == len(s) {
				return "", d.eof()
			}
			i += 2
			switch e := s[i-1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s, i)
				if r < 0 {
					d.i = i
					return "", d.errorf("invalid \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following \u low surrogate; anything else makes it
					// U+FFFD and leaves the next escape for its own turn.
					r2 := rune(-1)
					if strings.HasPrefix(s[i:], `\u`) {
						r2 = hex4(s, i+2)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.i = i - 1
				return "", d.errorf("invalid character %q in string escape code", e)
			}
		case c < ' ':
			d.i = i
			return "", d.errorf("invalid character %q in string literal", c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return "", d.eof()
}

// hex4 decodes the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if len(s) < i+4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// mismatch rejects the value starting with c where a field wants `want`:
// a type error for a well-formed start, a syntax error otherwise.
func (d *decoder) mismatch(c byte, want string) error {
	var got string
	switch {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || isDigit(c):
		got = "number"
	default:
		return d.errorf("invalid character %q looking for beginning of value", c)
	}
	return d.errorf("cannot decode %s into %s", got, want)
}

func (d *decoder) eof() error { return d.errorf("unexpected end of JSON input") }

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("decoding request: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}
