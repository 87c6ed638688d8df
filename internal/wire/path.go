package wire

import (
	"net/url"
	"strings"
)

// ParseSegmentPath parses a decoded request path of the form
// /v/<video>/segment/<chunk>/<rung> in one pass, without allocating. It
// accepts only what ServeMux's "GET /v/{video}/segment/{chunk}/{rung}"
// pattern routes to the same video, chunk and rung: a clean path naming a
// non-empty video, with both numbers one to nine plain decimal digits. A
// sign, an overlong number or a trailing slash is refused; a refused path
// may still be a segment request, left for the mux to answer.
func ParseSegmentPath(p string) (video string, chunk, rung int, ok bool) {
	rest, ok := strings.CutPrefix(p, "/v/")
	if !ok {
		return "", 0, 0, false
	}
	video, rest, ok = strings.Cut(rest, "/segment/")
	if !ok || !cleanSegment(video) {
		return "", 0, 0, false
	}
	if chunk, rest, ok = leadingDecimal(rest); !ok || !strings.HasPrefix(rest, "/") {
		return "", 0, 0, false
	}
	if rung, rest, ok = leadingDecimal(rest[1:]); !ok || rest != "" {
		return "", 0, 0, false
	}
	return video, chunk, rung, true
}

// PathElement returns the one path element between prefix and suffix in
// a decoded request path, without allocating: PathElement(p, "/v/",
// "/manifest.mpd") parses a manifest path and PathElement(p, "/session/",
// "") a session's. It accepts only what a ServeMux pattern with a wildcard
// in its place routes as it stands: a non-empty element that is not a dot
// segment and holds no slash.
func PathElement(p, prefix, suffix string) (elem string, ok bool) {
	rest, ok := strings.CutPrefix(p, prefix)
	if !ok {
		return "", false
	}
	elem, ok = strings.CutSuffix(rest, suffix)
	return elem, ok && cleanSegment(elem)
}

// cleanSegment reports whether s is one path element ServeMux matches a
// wildcard to as it stands: non-empty, not a dot segment, no slash.
func cleanSegment(s string) bool {
	return s != "" && s != "." && s != ".." && strings.IndexByte(s, '/') < 0
}

// leadingDecimal parses the one to nine decimal digits s starts with.
func leadingDecimal(s string) (n int, rest string, ok bool) {
	i := 0
	for i < len(s) && i < 10 && '0' <= s[i] && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
	}
	return n, s[i:], i > 0 && i < 10
}

// QueryParam extracts one query parameter without materializing a
// url.Values map — r.URL.Query() allocates on every call, which the
// zero-alloc segment path cannot afford. Unescaping is only attempted when
// the raw value actually contains an escape, which session IDs (hex) never
// do. For a query url.ParseQuery accepts, whose keys need no unescaping, it
// returns what url.ParseQuery(rawQuery).Get(key) does.
func QueryParam(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			pair, rawQuery = rawQuery, ""
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != key || pair == "" {
			continue
		}
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if u, err := url.QueryUnescape(v); err == nil {
				return u
			}
		}
		return v
	}
	return ""
}
