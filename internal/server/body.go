package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The two large-body endpoints, create-session and add-traces, decode
// their requests here instead of through encoding/json: the body is read
// once into a reused buffer, one pass over it unescapes the string
// members in place, and trace.Read and fa.Read read the unescaped bytes.
// The rules are encoding/json's for apiv1.CreateSessionRequest and
// apiv1.AddTracesRequest with unknown fields disallowed, which decodeJSON
// still applies to the other endpoints and FuzzDecodeMatchesOracle holds
// this decoder to:
//
//   - member names are unescaped, then matched under bytes.EqualFold;
//   - a repeated member keeps its last value, and null leaves a member
//     as it was, so a top-level null is the empty request;
//   - invalid UTF-8 and lone surrogates become U+FFFD;
//   - workers takes an integer literal that fits an int (1.0 and 1e1 do
//     not);
//   - any other member, value type or malformed JSON is an error.
//
// Unlike encoding/json's Decoder, both decoders reject anything but
// whitespace after the value.

// scratch is a byte buffer that a request body is read into, or a session
// snapshot rendered in, and a reader to hand its bytes to the text
// parsers. Scratches are kept in scratchPool between uses, so once warm a
// create reads its body and writes its snapshot without growing a buffer.
// The pool is a sync.Pool because the collector empties it: an idle
// server keeps no buffer.
type scratch struct {
	b  []byte
	rd bytes.Reader
}

// maxPooledScratch caps the buffer a scratch may keep in the pool: a
// buffer grown past it by one large body is dropped rather than pinned
// for every later request (golang/go#23199). It holds a bulk-shaped
// 1000-class create (about 70 KB) many times over.
const maxPooledScratch = 1 << 20

var scratchPool sync.Pool // of *scratch

func getScratch() *scratch {
	if sc, ok := scratchPool.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

func putScratch(sc *scratch) {
	if cap(sc.b) > maxPooledScratch {
		return
	}
	sc.b = sc.b[:0]
	sc.rd.Reset(nil)
	scratchPool.Put(sc)
}

// bodyRequest is a create-session or add-traces request as decodeBody
// decodes it. The string members alias the scratch the body was read
// into; a nil member was absent or null.
type bodyRequest struct {
	traces, refFA []byte
	workers       int
}

// decodeBody reads a create-session (create true) or add-traces request
// body into sc and decodes it. A body over maxJSONBody is refused with a
// 413 and malformed input with a 400, as decodeJSON refuses them.
func decodeBody(w http.ResponseWriter, r *http.Request, sc *scratch, create bool) (bodyRequest, error) {
	var err error
	sc.b, err = readBody(http.MaxBytesReader(w, r.Body, maxJSONBody), sc.b[:0])
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return bodyRequest{}, tooLarge(mbe)
		}
		return bodyRequest{}, badRequest(fmt.Errorf("reading request: %w", err))
	}
	req, err := scanRequest(sc.b, create)
	if err != nil {
		return bodyRequest{}, badRequest(fmt.Errorf("decoding request: %w", err))
	}
	return req, nil
}

// readBody appends everything r yields to buf. The buffer grows only as
// bytes arrive, doubling, and never past one byte over maxJSONBody, which
// is enough to see the limit crossed: a Content-Length promising more
// allocates nothing ahead of the bytes.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(cap(buf), 512), maxJSONBody+1-len(buf)))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanRequest decodes a body in one pass (see the rules above). String
// members are unescaped over their own bytes in b, so the result aliases
// b and the body is not kept.
func scanRequest(b []byte, create bool) (bodyRequest, error) {
	var req bodyRequest
	i := skipSpace(b, 0)
	switch {
	case isNull(b, i):
		i += len("null")
	case i < len(b) && b[i] == '{':
		var err error
		if i, err = scanMembers(b, i+1, &req, create); err != nil {
			return bodyRequest{}, err
		}
	case i == len(b):
		return bodyRequest{}, errors.New("empty body")
	default:
		return bodyRequest{}, fmt.Errorf("offset %d: the request is not a JSON object", i)
	}
	if i = skipSpace(b, i); i < len(b) {
		return bodyRequest{}, fmt.Errorf("offset %d: data after the JSON value", i)
	}
	return req, nil
}

// scanMembers decodes the members of the object whose opening brace ends
// at b[i-1] into req, and returns the index after its closing brace.
func scanMembers(b []byte, i int, req *bodyRequest, create bool) (int, error) {
	if i = skipSpace(b, i); i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, fmt.Errorf("offset %d: want a member name", i)
		}
		name, next, err := unquote(b, i)
		if err != nil {
			return 0, err
		}
		at := i
		if i = skipSpace(b, next); i >= len(b) || b[i] != ':' {
			return 0, fmt.Errorf("offset %d: want ':' after a member name", i)
		}
		i = skipSpace(b, i+1)
		switch {
		case bytes.EqualFold(name, []byte("traces")):
			i, err = stringMember(b, i, &req.traces)
		case create && bytes.EqualFold(name, []byte("ref_fa")):
			i, err = stringMember(b, i, &req.refFA)
		case create && bytes.EqualFold(name, []byte("workers")):
			i, err = intMember(b, i, &req.workers)
		default:
			return 0, fmt.Errorf("offset %d: unknown member %q", at, name)
		}
		if err != nil {
			return 0, err
		}
		i = skipSpace(b, i)
		switch {
		case i < len(b) && b[i] == ',':
			i = skipSpace(b, i+1)
		case i < len(b) && b[i] == '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("offset %d: want ',' or '}' after a member", i)
		}
	}
}

// stringMember decodes the string or null at b[i] into *dst, which null
// leaves as it was, and returns the index after it.
func stringMember(b []byte, i int, dst *[]byte) (int, error) {
	if isNull(b, i) {
		return i + len("null"), nil
	}
	if i >= len(b) || b[i] != '"' {
		return 0, fmt.Errorf("offset %d: want a string", i)
	}
	s, next, err := unquote(b, i)
	if err != nil {
		return 0, err
	}
	*dst = s
	return next, nil
}

// intMember decodes the integer literal or null at b[i] into *dst, which
// null leaves as it was, and returns the index after it. A fraction or an
// exponent is left unread, so the caller finds it where a ',' or '}'
// belongs.
func intMember(b []byte, i int, dst *int) (int, error) {
	if isNull(b, i) {
		return i + len("null"), nil
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	digits := j
	if j < len(b) && b[j] == '0' {
		j++
	} else {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
	}
	if j == digits {
		return 0, fmt.Errorf("offset %d: want an integer", i)
	}
	n, err := strconv.ParseInt(string(b[i:j]), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("offset %d: %w", i, err)
	}
	*dst = int(n)
	return j, nil
}

// unquote unescapes the JSON string whose opening quote is b[i] and
// returns its value and the index after its closing quote. The value is
// written over the string's own bytes, which every escape only shrinks.
// An invalid UTF-8 byte grows, into the three bytes of U+FFFD, and once
// the value would outrun the bytes read, the rest of it goes to a fresh
// slice instead.
func unquote(b []byte, i int) ([]byte, int, error) {
	start := i + 1
	out := b[start:start]
	inPlace := true
	for r := start; r < len(b); {
		j := r
		for j < len(b) && plain[b[j]] {
			j++
		}
		out = append(out, b[r:j]...)
		if r = j; r == len(b) {
			break
		}
		switch c := b[r]; {
		case c == '"':
			return out[:len(out):len(out)], r + 1, nil
		case c == '\\':
			ch, n := unescape(b, r)
			if n == 0 {
				return nil, 0, fmt.Errorf("offset %d: bad escape in string", r)
			}
			out = utf8.AppendRune(out, ch)
			r += n
		case c < ' ':
			return nil, 0, fmt.Errorf("offset %d: control character in string", r)
		default:
			ch, n := utf8.DecodeRune(b[r:])
			if ch == utf8.RuneError && n == 1 {
				if inPlace && len(out)+utf8.RuneLen(ch) > r+1-start {
					out, inPlace = append([]byte(nil), out...), false
				}
				out = utf8.AppendRune(out, ch)
			} else {
				out = append(out, b[r:r+n]...)
			}
			r += n
		}
	}
	return nil, 0, fmt.Errorf("offset %d: unterminated string", i)
}

// plain marks the bytes a JSON string holds as they stand, which unquote
// copies a run at a time: printable ASCII but the quote and the
// backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape decodes the escape sequence at b[r], a backslash, into the
// rune it stands for and the number of bytes it spans, or n == 0 when it
// is malformed. A \u escape of a surrogate half that does not pair with
// the escape after it stands for U+FFFD.
func unescape(b []byte, r int) (ch rune, n int) {
	if r+1 >= len(b) {
		return 0, 0
	}
	switch c := b[r+1]; c {
	case '"', '\\', '/':
		return rune(c), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		ch = hex4(b, r+2)
		if ch < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(ch) {
			return ch, 6
		}
		if r+7 < len(b) && b[r+6] == '\\' && b[r+7] == 'u' {
			if pair := utf16.DecodeRune(ch, hex4(b, r+8)); pair != utf8.RuneError {
				return pair, 12
			}
		}
		return utf8.RuneError, 6
	}
	return 0, 0
}

// hex4 returns the value of the four hex digits at b[i:], or -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var v rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// isNull reports whether the literal null starts at b[i]. What follows it
// is the caller's to check.
func isNull(b []byte, i int) bool {
	return i+4 <= len(b) && string(b[i:i+4]) == "null"
}
