package wire

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// The origin's two hand-written parsers sit on every request: the ?sid=
// scanner and the segment path parser that keeps segment GETs off the
// mux. Seeds are committed under testdata/fuzz/.

// FuzzQueryParam checks the scanner against the standard library: for any
// query url.ParseQuery accepts whose keys need no unescaping, QueryParam
// returns what ParseQuery's Get does.
func FuzzQueryParam(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, key string) {
		got := QueryParam(raw, key)
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, pair := range strings.Split(raw, "&") {
			if k, _, _ := strings.Cut(pair, "="); strings.ContainsAny(k, "%+") {
				return
			}
		}
		if want := vals.Get(key); got != want {
			t.Fatalf("QueryParam(%q, %q) = %q, url.ParseQuery says %q", raw, key, got, want)
		}
	})
}

// FuzzSegmentPath checks the segment parser from both sides: a path it
// accepts is one ServeMux's segment pattern routes to the same video,
// chunk and rung, and every path the client builds for a catalog video —
// VideoPath plus AppendSegment, as the origin decodes it — parses back to
// what was built.
func FuzzSegmentPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string, chunk, rung uint32) {
		checkAccepted(t, p)

		video := p
		c, r := int(chunk%1e9), int(rung%1e9)
		built := VideoPath(video) + string(AppendSegment(nil, c, r))
		u, err := url.Parse(built)
		if err != nil {
			t.Fatalf("client path %q does not parse: %v", built, err)
		}
		checkAccepted(t, u.Path)
		// A name with a '/' reaches the origin escaped (RawPath is set), and
		// "", "." and ".." name no catalog video; the mux answers those.
		if u.RawPath != "" || video == "" || video == "." || video == ".." {
			return
		}
		gv, gc, gr, ok := ParseSegmentPath(u.Path)
		if !ok || gv != video || gc != c || gr != r {
			t.Fatalf("%q (from %q, %d, %d) parsed as %q, %d, %d, %v", built, video, c, r, gv, gc, gr, ok)
		}
	})
}

// capturesKey carries, in a request's context, where segmentMux's handler
// stores the captures it was routed with.
type capturesKey struct{}

// segmentMux is the origin's segment pattern alone.
var segmentMux = func() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		*r.Context().Value(capturesKey{}).(*[]string) = []string{r.PathValue("video"), r.PathValue("chunk"), r.PathValue("rung")}
	})
	return mux
}()

// checkAccepted fails if ParseSegmentPath accepts p but ServeMux's segment
// pattern would not route a GET of p to the same video, chunk and rung.
func checkAccepted(t *testing.T, p string) {
	t.Helper()
	video, chunk, rung, ok := ParseSegmentPath(p)
	if !ok {
		return
	}
	var got []string
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: p}, Host: "origin", Header: http.Header{}}
	rec := httptest.NewRecorder()
	segmentMux.ServeHTTP(rec, req.WithContext(context.WithValue(context.Background(), capturesKey{}, &got)))
	if got == nil {
		t.Fatalf("%q parsed as %q, %d, %d; the mux answers %d instead of routing it", p, video, chunk, rung, rec.Code)
	}
	c, err1 := strconv.Atoi(got[1])
	g, err2 := strconv.Atoi(got[2])
	if got[0] != video || err1 != nil || err2 != nil || c != chunk || g != rung {
		t.Fatalf("%q parsed as %q, %d, %d; the mux routes it as %q", p, video, chunk, rung, got)
	}
}
