package wire

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The manifest codec, without reflection. encoding/xml is its
// specification: AppendMPD writes the bytes its indented marshaller writes,
// and Parse accepts a subset of what xml.Unmarshal accepts and decodes it
// to the same value. Parse refuses these, which Unmarshal accepts and
// the origin never writes, rather than carry a whole XML parser. FuzzMPD
// holds both directions to encoding/xml.
var (
	errMPDCDATA     = errors.New("CDATA section")
	errMPDDirective = errors.New("DOCTYPE or other directive")
	errMPDProcInst  = errors.New("processing instruction other than the XML declaration")
	errMPDNamespace = errors.New("XML namespace")
	errMPDRepeated  = errors.New("repeated Period, AdaptationSet or SenseiWeights")
)

// AppendMPD appends the manifest as Encode writes it: xml.Header, then the
// document encoding/xml marshals with a two-space indent. It allocates
// only to grow b. A rung whose weights are the previous rung's string
// copies that rung's escaped bytes instead of escaping them again.
func (m *MPD) AppendMPD(b []byte) []byte {
	as := &m.Period.AdaptationSet
	weights, from, to := "", 0, 0 // the last rung's weights, escaped at b[from:to]
	b = append(b, xml.Header...)
	b = append(b, `<MPD mediaPresentationDuration="`...)
	b = appendEscapedXML(b, m.MediaPresentation)
	b = append(b, "\">\n  <Period>\n    <AdaptationSet mimeType=\""...)
	b = appendEscapedXML(b, as.MimeType)
	b = append(b, `" senseiSegmentSeconds="`...)
	b = strconv.AppendInt(b, int64(as.SegmentSeconds), 10)
	b = append(b, '"')
	if as.WeightEpoch != 0 {
		b = append(b, ` senseiWeightEpoch="`...)
		b = append(strconv.AppendUint(b, as.WeightEpoch, 10), '"')
	}
	b = append(b, '>')
	for _, r := range as.Representations {
		b = append(b, "\n      <Representation id=\""...)
		b = appendEscapedXML(b, r.ID)
		b = append(b, `" bandwidth="`...)
		b = append(strconv.AppendInt(b, int64(r.Bandwidth), 10), `">`...)
		if r.SenseiWeights != "" {
			b = append(b, "\n        <SenseiWeights>"...)
			if r.SenseiWeights == weights {
				b = append(b, b[from:to]...)
			} else {
				from = len(b)
				b = appendEscapedXML(b, r.SenseiWeights)
				weights, to = r.SenseiWeights, len(b)
			}
			b = append(b, "</SenseiWeights>\n      "...)
		}
		b = append(b, "</Representation>"...)
	}
	if len(as.Representations) > 0 {
		b = append(b, "\n    "...)
	}
	return append(b, "</AdaptationSet>\n  </Period>\n</MPD>"...)
}

// appendEscapedXML appends s escaped as xml.EscapeText escapes it, which is
// how the marshaller writes attribute values and text: the five markup
// characters and tab, newline and carriage return as references, and a
// rune outside XML's character range or an invalid UTF-8 byte as U+FFFD.
func appendEscapedXML(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !xmlChar(r) || (r == utf8.RuneError && width == 1) {
				esc = "\uFFFD"
				break
			}
			continue
		}
		b = append(append(b, s[last:i-width]...), esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// mpdShape is the path of elements Parse decodes, root first.
var mpdShape = [...]string{"MPD", "Period", "AdaptationSet", "Representation", "SenseiWeights"}

// xmlDecl is the XML declaration Parse accepts, at the start only.
var xmlDecl = regexp.MustCompile(`^<\?xml\s+version=("1\.0"|'1\.0')(\s+encoding=("(?i:utf-8)"|'(?i:utf-8)'))?(\s+standalone=("(yes|no)"|'(yes|no)'))?\s*\?>$`)

// Parse decodes a manifest into m in one pass. Like encoding/xml, it takes
// attributes in any order and either quote style, white space, comments,
// the five predefined entities and character references, and it skips
// unknown attributes and elements, checking that they are well formed.
//
// m is reset first; on an error it holds what was decoded up to it. Parse
// reuses m's Representations backing array when it has room, and sizes a
// new one once. A string field equal to one of known, or to the mime type
// BuildMPDProfile writes, is assigned that string; every other string is a
// copy, so m shares nothing with data. A rung whose SenseiWeights text is
// the previous one's raw bytes again is neither checked nor copied: it
// shares the previous rung's string.
func (m *MPD) Parse(data []byte, known ...string) error {
	p := mpdParser{data: data}
	if p.at("<?xml") {
		p.i = bytes.Index(data, []byte("?>")) + 2
		if p.i < 2 || !xmlDecl.Match(data[:p.i]) {
			p.syntax("unsupported XML declaration")
		}
	}
	// Every rung's start tag is this text, so reps never grows: the rungs
	// stay nil, as xml.Unmarshal leaves them, until one is read.
	reps := m.Period.AdaptationSet.Representations[:0]
	if n := bytes.Count(data, []byte("<Representation")); cap(reps) < n {
		reps = make([]Representation, 0, n)
	}
	*m = MPD{XMLName: xml.Name{Local: "MPD"}}
	as := &m.Period.AdaptationSet
	var (
		stack [8][]byte
		open  = stack[:0] // the names of the open elements, root first
		depth int         // how many of them are on mpdShape's path
		seen  [len(mpdShape)]bool
		text  []byte // the open SenseiWeights' text so far
		// The last SenseiWeights' string and raw content (none before the
		// first); from is where the open one's content starts, and reused
		// says its content is the last one's again.
		last   string
		raw    []byte
		from   int
		reused bool
	)
	for p.err == nil {
		switch p.next() {
		case tokStart:
			on := len(open) == depth && depth < len(mpdShape) && string(p.name) == mpdShape[depth]
			switch {
			case len(open) == 0 && !on:
				p.syntax("root element is not MPD")
			case on && depth == 3: // a Representation
				as.Representations = append(reps[:len(as.Representations)], Representation{})
				seen[4] = false
			case on && seen[depth]:
				p.fail(errMPDRepeated)
			}
			open = append(open, p.name)
			for p.attr() {
				switch key := string(p.key); {
				case !on:
				case depth == 0 && key == "mediaPresentationDuration":
					m.MediaPresentation = knownString(p.val, known, mpdMimeType)
				case depth == 2 && key == "mimeType":
					as.MimeType = knownString(p.val, known, mpdMimeType)
				case depth == 2 && key == "senseiSegmentSeconds":
					as.SegmentSeconds = int(p.number(true))
				case depth == 2 && key == "senseiWeightEpoch":
					as.WeightEpoch = uint64(p.number(false))
				case depth == 3 && key == "id":
					as.Representations[len(as.Representations)-1].ID = knownString(p.val, known, mpdMimeType)
				case depth == 3 && key == "bandwidth":
					as.Representations[len(as.Representations)-1].Bandwidth = int(p.number(true))
				}
			}
			if on {
				seen[depth] = true
				depth++
			}
			if on && depth == len(mpdShape) {
				// Equal raw content in the same place decodes to equal
				// text, so the last SenseiWeights' check and copy stand.
				rest := data[p.i:]
				from, reused = p.i, !p.empty && bytes.HasPrefix(rest, raw) && bytes.HasPrefix(rest[len(raw):], []byte("</"))
				if reused {
					p.i += len(raw)
				}
			}
		case tokText:
			// encoding/xml reads a string element's text with its comments
			// and child elements left out.
			if t := p.text(p.val); len(open) == len(mpdShape) && depth == len(mpdShape) {
				if text == nil {
					text = t // most often the only piece: used in place
				} else {
					text = append(text[:len(text):len(text)], t...)
				}
			}
		case tokEnd:
			top := len(open) - 1
			if top < 0 || !bytes.Equal(p.name, open[top]) {
				p.syntax("mismatched end tag")
				break
			}
			if top+1 == depth {
				if depth--; depth == 4 { // SenseiWeights closed
					if !reused && string(text) != last {
						last = knownString(text, known, mpdMimeType)
					}
					raw = data[min(from, p.tag):p.tag] // none for <SenseiWeights/>
					as.Representations[len(as.Representations)-1].SenseiWeights = last
					text, reused = nil, false
				}
			}
			if open = open[:top]; top == 0 {
				// encoding/xml stops reading at the root's end; this refuses
				// anything after it but white space and comments.
				for p.space(); p.err == nil && p.at("<!--"); p.space() {
					p.comment()
				}
				if p.err == nil && p.i == len(data) {
					return nil
				}
				p.syntax("content after the root element")
			}
		}
	}
	return p.err
}

// mpdParser scans a manifest. Its first error sticks and ends the scan.
type mpdParser struct {
	data []byte
	i    int
	err  error
	// name is the tag next read. key and val are the attribute attr read,
	// its value decoded; after next reads text, val holds it raw. empty
	// reports that the start tag just read closed itself. tag is where the
	// last start or end tag began.
	name, key, val []byte
	empty          bool
	tag            int
}

// The tokens next reads; on an error it reads none of them.
const (
	tokText = iota + 1
	tokStart
	tokEnd
)

func (p *mpdParser) fail(err error) {
	if p.err == nil {
		p.err = fmt.Errorf("wire: parsing MPD: %w at offset %d", err, p.i)
	}
}

func (p *mpdParser) syntax(msg string) { p.fail(errors.New(msg)) }

// next reads the next token: text, skipping comments; a start tag, whose
// attributes the caller reads with attr; or an end tag, which a start tag
// that closed itself is too.
func (p *mpdParser) next() int {
	if p.empty {
		p.empty = false
		return tokEnd
	}
	for p.err == nil {
		at, rest := p.i, p.data[p.i:]
		switch j := bytes.IndexByte(rest, '<'); {
		case j < 0:
			p.syntax("unexpected EOF")
		case j > 0 && bytes.Contains(rest[:j], []byte("]]>")):
			p.syntax("unescaped ]]> in text")
		case j > 0:
			p.val, p.i = rest[:j], p.i+j
			return tokText
		case p.at("<!--"):
			p.comment()
		case p.at("<!["):
			p.fail(errMPDCDATA)
		case p.at("<!"):
			p.fail(errMPDDirective)
		case p.at("<?"):
			p.fail(errMPDProcInst)
		case p.consume("</"):
			p.tag, p.name = at, p.readName()
			p.expect(">")
			return tokEnd
		default:
			p.i++
			p.tag, p.name = at, p.readName()
			return tokStart
		}
	}
	return 0
}

// attr reads the start tag's next attribute and reports whether there was
// one.
func (p *mpdParser) attr() bool {
	if p.space(); p.err != nil || p.consume(">") {
		return false
	}
	if p.empty = p.consume("/>"); p.empty {
		return false
	}
	if p.key = p.readName(); string(p.key) == "xmlns" {
		p.fail(errMPDNamespace)
	}
	p.expect("=")
	p.space()
	end := -1
	if p.at(`"`) || p.at("'") {
		end = bytes.IndexByte(p.data[p.i+1:], p.data[p.i])
	}
	if end < 0 || bytes.IndexByte(p.data[p.i+1:p.i+1+end], '<') >= 0 {
		p.syntax("unquoted or unterminated attribute value, or < in one")
		return false
	}
	p.val = p.text(p.data[p.i+1 : p.i+1+end])
	p.i += end + 2
	return p.err == nil
}

// readName reads an element or attribute name: ASCII here, and without
// the colon of a namespace prefix.
func (p *mpdParser) readName() []byte {
	start := p.i
	for ; p.i < len(p.data); p.i++ {
		c := p.data[p.i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
			p.i > start && ('0' <= c && c <= '9' || c == '-' || c == '.')) {
			break
		}
	}
	if p.at(":") {
		p.fail(errMPDNamespace)
	} else if p.i == start || p.i < len(p.data) && p.data[p.i] >= utf8.RuneSelf {
		p.syntax("invalid name")
	}
	return p.data[start:p.i]
}

// text checks raw character data and returns it decoded as encoding/xml
// decodes it: references replaced, and "\r\n" and a lone '\r' read as
// '\n'. Text that needs neither comes back as is, not copied.
func (p *mpdParser) text(raw []byte) []byte {
	for i, size := 0, 0; i < len(raw); i += size {
		r := rune(raw[i])
		if size = 1; r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(raw[i:])
		}
		if r == utf8.RuneError && size == 1 || !xmlChar(r) {
			p.syntax("invalid UTF-8 or a character XML excludes")
			return nil
		}
	}
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		return raw
	}
	var b []byte
	for {
		i := bytes.IndexAny(raw, "&\r")
		if i < 0 {
			return append(b, raw...)
		}
		b, raw = append(b, raw[:i]...), raw[i:]
		if raw[0] == '\r' {
			b, raw = append(b, '\n'), bytes.TrimPrefix(raw[1:], []byte("\n"))
			continue
		}
		name, rest, found := bytes.Cut(raw[1:], []byte(";"))
		r, ok := xmlEntities[string(name)]
		if digits, isRef := strings.CutPrefix(string(name), "#"); isRef {
			base := 10
			if hex, isHex := strings.CutPrefix(digits, "x"); isHex { // never "#X", as in encoding/xml
				digits, base = hex, 16
			}
			n, err := strconv.ParseUint(digits, base, 32)
			r, ok = rune(n), err == nil && xmlChar(rune(n))
		}
		if !found || !ok {
			p.syntax("invalid character reference")
			return nil
		}
		b, raw = utf8.AppendRune(b, r), rest
	}
}

// xmlEntities are the entities XML predefines.
var xmlEntities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// xmlChar reports whether r is a character an XML document may contain.
func xmlChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// number reads val as encoding/xml reads a number attribute: empty is
// zero, and anything else must parse once white space is trimmed, as an
// int64 or, if !signed, as a uint64 returned as its bits.
func (p *mpdParser) number(signed bool) int64 {
	if u, ok := parseDigits(p.val); ok && u <= math.MaxInt64 || len(p.val) == 0 {
		return int64(u) // the common case, without a copy
	}
	s := strings.TrimSpace(string(p.val))
	n, err := strconv.ParseInt(s, 10, 64)
	if !signed {
		u, uerr := strconv.ParseUint(s, 10, 64)
		n, err = int64(u), uerr
	}
	if err != nil {
		p.fail(err)
	}
	return n
}

// comment skips the comment at i: the first "--" in it must close it.
func (p *mpdParser) comment() {
	body := p.data[p.i+len("<!--"):]
	if j := bytes.Index(body, []byte("--")); j >= 0 && bytes.HasPrefix(body[j:], []byte("-->")) {
		p.i += len("<!--") + j + len("-->")
	} else {
		p.syntax("malformed comment")
	}
}

func (p *mpdParser) space() {
	for p.i < len(p.data) && strings.IndexByte(" \t\n\r", p.data[p.i]) >= 0 {
		p.i++
	}
}

func (p *mpdParser) at(s string) bool {
	return p.i+len(s) <= len(p.data) && string(p.data[p.i:p.i+len(s)]) == s
}

func (p *mpdParser) consume(s string) (ok bool) {
	if ok = p.at(s); ok {
		p.i += len(s)
	}
	return ok
}

// expect consumes s after white space.
func (p *mpdParser) expect(s string) {
	if p.space(); !p.consume(s) {
		p.fail(fmt.Errorf("expected %q", s))
	}
}
