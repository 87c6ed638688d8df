package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON bodies' codec. Each body has AppendJSON, which appends exactly
// the bytes json.Marshal produces for it, and Parse, which accepts exactly
// the documents json.Unmarshal accepts for it and decodes them to the same
// value. Neither reflects; AppendJSON allocates only to grow dst, and Parse
// only for the strings and weights it decodes. Parse takes the strings its
// caller already holds as known: a string field whose decoded text equals
// one of them is assigned that string, not a copy, so a reply naming the
// caller's own video or session allocates nothing for it. FuzzBodies holds
// both to encoding/json.

// AppendJSON appends the request as json.Marshal encodes it.
func (m *JoinRequest) AppendJSON(b []byte) []byte {
	b = append(b, `{"video":`...)
	b = appendString(b, m.Video)
	if m.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendString(b, m.Trace)
	}
	if m.TimeScale != 0 {
		b = append(b, `,"timescale":`...)
		b = appendFloat(b, m.TimeScale)
	}
	return append(b, '}')
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text:
// the origin passes its catalog's video and trace names.
func (m *JoinRequest) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("video"):
			d.string(&m.Video, known)
		case d.is("trace"):
			d.string(&m.Trace, known)
		case d.is("timescale"):
			d.float(&m.TimeScale)
		default:
			d.skip()
		}
	}
	return d.end()
}

// AppendJSON appends the reply as json.Marshal encodes it.
func (m *JoinResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"session_id":`...)
	b = appendString(b, m.SessionID)
	b = append(b, `,"video":`...)
	b = appendString(b, m.Video)
	b = append(b, `,"trace":`...)
	b = appendString(b, m.Trace)
	b = append(b, `,"timescale":`...)
	b = appendFloat(b, m.TimeScale)
	return append(b, '}')
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text.
func (m *JoinResponse) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("session_id"):
			d.string(&m.SessionID, known)
		case d.is("video"):
			d.string(&m.Video, known)
		case d.is("trace"):
			d.string(&m.Trace, known)
		case d.is("timescale"):
			d.float(&m.TimeScale)
		default:
			d.skip()
		}
	}
	return d.end()
}

// AppendJSON appends the reply as json.Marshal encodes it.
func (m *WeightsResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"video":`...)
	b = appendString(b, m.Video)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, m.Epoch, 10)
	if len(m.Weights) > 0 {
		b = append(b, `,"weights":[`...)
		for i, w := range m.Weights {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, w)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text.
func (m *WeightsResponse) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("video"):
			d.string(&m.Video, known)
		case d.is("epoch"):
			d.uint(&m.Epoch)
		case d.is("weights"):
			d.floats(&m.Weights)
		default:
			d.skip()
		}
	}
	return d.end()
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text.
// No caller holds a string to pass for this body, so known stays empty in
// the program; it keeps every body's Parse in the one shape FuzzBodies
// drives.
func (m *RefreshRequest) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("video"):
			d.string(&m.Video, known)
		case d.is("from"):
			d.int(&m.From)
		case d.is("to"):
			d.int(&m.To)
		default:
			d.skip()
		}
	}
	return d.end()
}

// AppendJSON appends the reply as json.Marshal encodes it.
func (m *RefreshResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"video":`...)
	b = appendString(b, m.Video)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, m.Epoch, 10)
	return append(b, '}')
}

// AppendJSON appends the request as json.Marshal encodes it.
func (m *RatingRequest) AppendJSON(b []byte) []byte {
	b = append(b, `{"session_id":`...)
	b = appendString(b, m.SessionID)
	b = append(b, `,"chunk":`...)
	b = strconv.AppendInt(b, int64(m.Chunk), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, m.Epoch, 10)
	b = append(b, `,"rating":`...)
	b = strconv.AppendInt(b, int64(m.Rating), 10)
	return append(b, '}')
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text.
func (m *RatingRequest) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("session_id"):
			d.string(&m.SessionID, known)
		case d.is("chunk"):
			d.int(&m.Chunk)
		case d.is("epoch"):
			d.uint(&m.Epoch)
		case d.is("rating"):
			d.int(&m.Rating)
		default:
			d.skip()
		}
	}
	return d.end()
}

// AppendJSON appends the reply as json.Marshal encodes it.
func (m *RatingResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"video":`...)
	b = appendString(b, m.Video)
	b = append(b, `,"chunk":`...)
	b = strconv.AppendInt(b, int64(m.Chunk), 10)
	b = append(b, `,"status":`...)
	b = appendString(b, m.Status)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, m.Epoch, 10)
	return append(b, '}')
}

// Parse decodes data into m as json.Unmarshal would, sharing known's text.
func (m *RatingResponse) Parse(data []byte, known ...string) error {
	d := decoder{data: data}
	for d.field() {
		switch {
		case d.is("video"):
			d.string(&m.Video, known)
		case d.is("chunk"):
			d.int(&m.Chunk)
		case d.is("status"):
			d.string(&m.Status, known, StatusAccepted, StatusQuarantined)
		case d.is("epoch"):
			d.uint(&m.Epoch)
		default:
			d.skip()
		}
	}
	return d.end()
}

// appendString appends s as a JSON string the way json.Marshal writes one:
// <, > and & escaped for HTML, each invalid UTF-8 byte as \ufffd, and
// U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |f| < 1e-6 or |f| >= 1e21,
// where it is 'e' form with an unpadded exponent. NaN and ±Inf, which
// json.Marshal refuses, come out in strconv's spelling, which no JSON
// parser accepts: callers encode finite values only.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// maxDepth is encoding/json's nesting limit: a document with an array or
// object nested deeper than this is refused.
const maxDepth = 10000

// decoder walks one JSON object, the top-level value of a body, field by
// field. The caller loops on field, reads the value of each key it knows
// with the typed reader the field's Go type calls for and skips the rest,
// then calls end. The first error sticks: every later call is a no-op.
//
// It refuses what json.Unmarshal refuses for the same struct — a syntax
// error anywhere, a value of the wrong JSON type, a number the field
// cannot hold — and, where Unmarshal accepts, leaves the same value
// behind: keys match field names exactly or under bytes.EqualFold, a
// repeated key's last value wins, null leaves a string or number as it was
// and sets a slice to nil, and a top-level null changes nothing.
type decoder struct {
	data []byte
	off  int
	// key is the current field's name as it stands between its quotes;
	// rawKey reports that it has no escape and is valid UTF-8, so it is
	// also its decoded form.
	key    []byte
	rawKey bool
	state  uint8
	err    error
}

// The decoder's states: before the top-level value, after a key's value,
// and finished (the object closed, or the document was null).
const (
	stateStart = iota
	stateNext
	stateDone
)

// errSyntax is the message of every malformed-document error.
var errSyntax = errors.New("malformed JSON")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %w at offset %d", err, d.off)
	}
}

// mismatch records a value that does not fit the current field.
func (d *decoder) mismatch(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: field %q at offset %d: want %s", d.key, d.off, want)
	}
}

// field advances to the next key of the object and reports whether there
// is one; it returns false at the object's end, on a top-level null and on
// an error.
func (d *decoder) field() bool {
	if d.err != nil || d.state == stateDone {
		return false
	}
	first := d.state == stateStart
	if first {
		d.space()
		if d.literal("null") {
			d.state = stateDone
			return false
		}
		if !d.consume('{') {
			d.fail(errors.New("body is not a JSON object"))
			return false
		}
	}
	if !d.more('}', first) {
		d.state = stateDone
		return false
	}
	d.key, d.rawKey = d.objectKey()
	d.state = stateNext
	return d.err == nil
}

// more reports whether the array or object that end closes has another
// element, and consumes what precedes it: the comma, unless it is the
// first. At the end it consumes end and returns false, as on an error.
func (d *decoder) more(end byte, first bool) bool {
	d.space()
	if d.err != nil || d.consume(end) {
		return false
	}
	if !first && !d.consume(',') {
		d.fail(errSyntax)
		return false
	}
	d.space()
	return true
}

// objectKey consumes an object's key and the colon after it.
func (d *decoder) objectKey() (key []byte, raw bool) {
	key, raw, ok := d.scanString()
	d.space()
	if ok && !d.consume(':') {
		d.fail(errSyntax)
	}
	d.space()
	return key, raw
}

// is reports whether the current key names the field name, which is ASCII.
func (d *decoder) is(name string) bool {
	key := d.key
	if !d.rawKey {
		var buf [32]byte
		key = unquote(buf[:0], key)
	}
	return bytes.EqualFold(key, []byte(name))
}

// end finishes the document: nothing but white space may follow the
// object. It returns the first error met.
func (d *decoder) end() error {
	if d.err == nil {
		d.space()
		if d.off < len(d.data) {
			d.fail(errors.New("data after the top-level value"))
		}
	}
	return d.err
}

func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *decoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// literal consumes lit (true, false or null) if the input starts with it.
func (d *decoder) literal(lit string) bool {
	if rest := d.data[d.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// scanString consumes a string and returns what lies between its quotes,
// and whether that is also the decoded string (no escape, valid UTF-8).
func (d *decoder) scanString() (s []byte, raw, ok bool) {
	if !d.consume('"') {
		d.fail(errSyntax)
		return nil, false, false
	}
	start, escaped, ascii := d.off, false, true
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			s = d.data[start:d.off]
			d.off++
			return s, !escaped && (ascii || utf8.Valid(s)), true
		case c == '\\':
			escaped = true
			if d.off+1 >= len(d.data) {
				d.fail(errSyntax)
				return nil, false, false
			}
			switch d.data[d.off+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off += 2
			case 'u':
				if d.off+6 > len(d.data) || hex4(d.data[d.off+2:d.off+6]) < 0 {
					d.fail(errSyntax)
					return nil, false, false
				}
				d.off += 6
			default:
				d.fail(errSyntax)
				return nil, false, false
			}
		case c < ' ':
			d.fail(errSyntax)
			return nil, false, false
		default:
			ascii = ascii && c < utf8.RuneSelf
			d.off++
		}
	}
	d.fail(errSyntax)
	return nil, false, false
}

// hex4 decodes four hex digits, or returns -1.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
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
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the decoded form of s, a scanned string's contents, to
// b, as encoding/json decodes it: a surrogate pair becomes its rune, and a
// lone surrogate or an invalid UTF-8 byte becomes U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
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
				r := hex4(s[i+2 : i+6])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:i+6])); pair != unicode.ReplacementChar {
							b = utf8.AppendRune(b, pair)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r) // RuneError for an invalid byte
			i += size
		}
	}
	return b
}

// scanNumber consumes a number and returns its text.
func (d *decoder) scanNumber() ([]byte, bool) {
	data, i := d.data, d.off
	digits := func() bool {
		j := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.fail(errSyntax)
		return nil, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.fail(errSyntax)
			return nil, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.fail(errSyntax)
			return nil, false
		}
	}
	num := data[d.off:i]
	d.off = i
	return num, true
}

// scalar prepares to read a string or number field: it consumes a null and
// returns false, leaving the field as it was, or returns true at the
// value's first byte.
func (d *decoder) scalar() bool {
	if d.err != nil || d.literal("null") {
		return false
	}
	if d.off >= len(d.data) {
		d.fail(errSyntax)
		return false
	}
	return true
}

// string reads a string field. Text equal to one of known or consts is
// assigned that string instead of a copy, so an expected value allocates
// nothing. (known is not a decoder field: the decoder's fields escape, and
// Parse's caller would allocate its known slice.)
func (d *decoder) string(dst *string, known []string, consts ...string) {
	if !d.scalar() {
		return
	}
	if d.data[d.off] != '"' {
		d.mismatch("a string")
		return
	}
	s, raw, ok := d.scanString()
	if !ok {
		return
	}
	if !raw {
		var buf [64]byte
		s = unquote(buf[:0], s)
	}
	*dst = knownString(s, known, consts...)
}

// knownString returns s as the string of known or consts it equals, or else
// as a copy. The JSON bodies and the manifest decode their strings with it.
func knownString(s []byte, known []string, consts ...string) string {
	for _, set := range [...][]string{known, consts} {
		for _, k := range set {
			if string(s) == k {
				return k
			}
		}
	}
	return string(s)
}

// number reads a number field's text.
func (d *decoder) number(want string) ([]byte, bool) {
	if !d.scalar() {
		return nil, false
	}
	if c := d.data[d.off]; c != '-' && (c < '0' || c > '9') {
		d.mismatch(want)
		return nil, false
	}
	return d.scanNumber()
}

// int reads an int field: an integer literal in int's range. 1.0 and 1e2
// are refused, as strconv.ParseInt refuses them for encoding/json.
func (d *decoder) int(dst *int) {
	num, ok := d.number("an integer")
	if !ok {
		return
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	u, ok := parseDigits(num)
	var n int64
	switch {
	case ok && !neg && u <= math.MaxInt64:
		n = int64(u)
	case ok && neg && u <= -math.MinInt64:
		n = -int64(u)
	default:
		ok = false
	}
	if !ok || int64(int(n)) != n {
		d.mismatch("an integer")
		return
	}
	*dst = int(n)
}

// uint reads a uint64 field: digits only, so "-0" is refused as
// strconv.ParseUint refuses it.
func (d *decoder) uint(dst *uint64) {
	num, ok := d.number("an unsigned integer")
	if !ok {
		return
	}
	u, ok := parseDigits(num)
	if !ok {
		d.mismatch("an unsigned integer")
		return
	}
	*dst = u
}

// parseDigits parses a run of decimal digits that fits a uint64.
func parseDigits(num []byte) (uint64, bool) {
	var u uint64
	for _, c := range num {
		if c < '0' || c > '9' || u > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	return u, len(num) > 0
}

// float reads a float64 field; a number out of float64's range is refused.
func (d *decoder) float(dst *float64) {
	num, ok := d.number("a number")
	if !ok {
		return
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.mismatch("a number in float64's range")
		return
	}
	*dst = f
}

// floats reads a []float64 field. Like encoding/json it decodes into the
// slice's existing elements and backing array, so a null element keeps
// whatever that slot held; an empty array leaves an empty, non-nil slice.
// An array longer than that backing array is counted first and given a new
// one of its length in one allocation, with the old array's slots copied
// in, as growing it by append would leave them.
func (d *decoder) floats(dst *[]float64) {
	if d.err != nil {
		return
	}
	if d.literal("null") {
		*dst = nil
		return
	}
	if !d.consume('[') {
		d.mismatch("an array of numbers")
		return
	}
	s, i := *dst, 0
	if n := d.elements(); n > cap(s) {
		grown := make([]float64, n)
		copy(grown, s[:cap(s)])
		s = grown[:len(s)]
	}
	for ; d.more(']', i == 0); i++ {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, 0)
		}
		d.float(&s[i])
	}
	if d.err != nil {
		return
	}
	if i == 0 {
		s = []float64{}
	}
	*dst = s[:i]
}

// elements counts the elements of the array whose '[' was just consumed,
// reading ahead to its first ']' without consuming anything. The count is
// exact for an array of numbers and nulls; for anything else, which the
// caller refuses, it is 0.
func (d *decoder) elements() int {
	n, empty := 1, true
	for _, c := range d.data[d.off:] {
		switch c {
		case ']':
			if empty {
				return 0
			}
			return n
		case ',':
			n++
		case ' ', '\t', '\n', '\r':
		case '"', '[', '{':
			return 0
		default:
			empty = false
		}
	}
	return 0
}

// skip consumes the value of a field no body declares.
func (d *decoder) skip() { d.skipValue(2) }

// skipValue consumes one value whose containers, if it is one, sit at
// nesting depth depth.
func (d *decoder) skipValue(depth int) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.data) {
		d.fail(errSyntax)
		return
	}
	switch c := d.data[d.off]; c {
	case '"':
		d.scanString()
	case '{', '[':
		d.off++
		if depth > maxDepth {
			d.fail(errors.New("exceeded max nesting depth"))
			return
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		for n := 0; d.more(end, n == 0); n++ {
			if c == '{' {
				d.objectKey()
			}
			d.skipValue(depth + 1)
		}
	case 't', 'f', 'n':
		if !d.literal("true") && !d.literal("false") && !d.literal("null") {
			d.fail(errSyntax)
		}
	default:
		d.scanNumber()
	}
}
