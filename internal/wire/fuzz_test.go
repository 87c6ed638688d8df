package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"encoding/xml"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The origin's hand-written parsers sit on every request: the ?sid=
// scanner, the segment path parser that keeps segment GETs off the mux,
// the JSON bodies' codec on both sides of the control plane, and the
// manifest codec every session starts with. Seeds are committed under
// testdata/fuzz/.

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

// FuzzSegmentPath checks the segment and manifest path parsers from both
// sides: a path one accepts is one ServeMux's pattern routes to the same
// video (chunk and rung), and every path the client builds for a catalog
// video — VideoPath plus AppendSegment or "manifest.mpd", as the origin
// decodes it — parses back to what was built.
func FuzzSegmentPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string, chunk, rung uint32) {
		checkAccepted(t, p)
		checkManifestAccepted(t, p)

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
		m, err := url.Parse(VideoPath(video) + "manifest.mpd")
		if err != nil {
			t.Fatal(err)
		}
		if gv, ok := PathElement(m.Path, "/v/", "/manifest.mpd"); !ok || gv != video {
			t.Fatalf("%q (from %q) parsed as manifest of %q, %v", m, video, gv, ok)
		}
	})
}

// capturesKey carries, in a request's context, where segmentMux's handler
// stores the captures it was routed with.
type capturesKey struct{}

// segmentMux is the origin's segment and manifest patterns alone.
var segmentMux = func() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		*r.Context().Value(capturesKey{}).(*[]string) = []string{r.PathValue("video"), r.PathValue("chunk"), r.PathValue("rung")}
	})
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		*r.Context().Value(capturesKey{}).(*[]string) = []string{r.PathValue("video"), "manifest"}
	})
	return mux
}()

// routeOf is what segmentMux routes a GET of p to: the captures, or nil
// and the status it answers instead.
func routeOf(p string) ([]string, int) {
	var got []string
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: p}, Host: "origin", Header: http.Header{}}
	rec := httptest.NewRecorder()
	segmentMux.ServeHTTP(rec, req.WithContext(context.WithValue(context.Background(), capturesKey{}, &got)))
	return got, rec.Code
}

// checkManifestAccepted fails if PathElement accepts p as a manifest path
// but ServeMux's manifest pattern would not route a GET of p to the same
// video.
func checkManifestAccepted(t *testing.T, p string) {
	t.Helper()
	video, ok := PathElement(p, "/v/", "/manifest.mpd")
	if !ok {
		return
	}
	if got, code := routeOf(p); len(got) != 2 || got[0] != video {
		t.Fatalf("%q parsed as manifest of %q; the mux answers %d, %q", p, video, code, got)
	}
}

// checkAccepted fails if ParseSegmentPath accepts p but ServeMux's segment
// pattern would not route a GET of p to the same video, chunk and rung.
func checkAccepted(t *testing.T, p string) {
	t.Helper()
	video, chunk, rung, ok := ParseSegmentPath(p)
	if !ok {
		return
	}
	got, code := routeOf(p)
	if len(got) != 3 {
		t.Fatalf("%q parsed as %q, %d, %d; the mux answers %d instead of routing it", p, video, chunk, rung, code)
	}
	c, err1 := strconv.Atoi(got[1])
	g, err2 := strconv.Atoi(got[2])
	if got[0] != video || err1 != nil || err2 != nil || c != chunk || g != rung {
		t.Fatalf("%q parsed as %q, %d, %d; the mux routes it as %q", p, video, chunk, rung, got)
	}
}

// FuzzBodies holds every body's codec to encoding/json. Parse must accept
// exactly the documents json.Unmarshal accepts for the same type, starting
// from a zero and from a filled-in value, and leave the same value behind.
// AppendJSON must write json.Marshal's bytes for any value Marshal
// encodes (it refuses NaN and ±Inf), and Parse must read them back as
// Unmarshal does.
func FuzzBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, s string, n int64, u uint64, x float64) {
		ws := floatsOf(data, x)
		checkBody(t, data, JoinRequest{Video: s, Trace: string(data), TimeScale: x},
			func() JoinRequest { return JoinRequest{Video: "v", Trace: "t", TimeScale: 2} })
		checkBody(t, data, JoinResponse{SessionID: string(data), Video: s, Trace: s, TimeScale: x},
			func() JoinResponse { return JoinResponse{SessionID: "s", Video: "v", Trace: "t", TimeScale: 2} })
		checkBody(t, data, WeightsResponse{Video: s, Epoch: u, Weights: ws},
			// Two stale slots past len: encoding/json decodes into them.
			func() WeightsResponse {
				return WeightsResponse{Video: "v", Epoch: 7, Weights: []float64{1, 2, 3, 4}[:2]}
			})
		checkBody(t, data, RefreshRequest{Video: s, From: int(n), To: int(u)},
			func() RefreshRequest { return RefreshRequest{Video: "v", From: 1, To: 2} })
		checkBody(t, data, RefreshResponse{Video: s, Epoch: u},
			func() RefreshResponse { return RefreshResponse{Video: "v", Epoch: 7} })
		checkBody(t, data, RatingRequest{SessionID: s, Chunk: int(n), Epoch: u, Rating: int(int32(n >> 32))},
			func() RatingRequest { return RatingRequest{SessionID: "s", Chunk: 1, Epoch: 7, Rating: 3} })
		checkBody(t, data, RatingResponse{Video: string(data), Chunk: int(n), Status: s, Epoch: u},
			func() RatingResponse { return RatingResponse{Video: "v", Chunk: 1, Status: StatusAccepted, Epoch: 7} })
	})
}

// floatsOf reads data as little-endian float64s after x; no data is a nil
// slice.
func floatsOf(data []byte, x float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	ws := []float64{x}
	for ; len(data) >= 8; data = data[8:] {
		ws = append(ws, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return ws
}

// body is what every wire body implements.
type body[T any] interface {
	*T
	AppendJSON([]byte) []byte
	Parse([]byte) error
}

// checkBody parses data into a zero T and into a filled-in one, against
// json.Unmarshal, then encodes v against json.Marshal.
func checkBody[T any, P body[T]](t *testing.T, data []byte, v T, filled func() T) {
	t.Helper()
	for _, start := range []func() T{func() T { var z T; return z }, filled} {
		got, want := start(), start()
		gotErr, wantErr := P(&got).Parse(data), json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%T.Parse(%q) = %v, json.Unmarshal says %v", got, data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T.Parse(%q) = %#v, json.Unmarshal says %#v", got, data, got, want)
		}
	}

	want, err := json.Marshal(v)
	if err != nil {
		return // NaN or ±Inf: not JSON
	}
	prefix := []byte("prefix")
	got := P(&v).AppendJSON(prefix)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%T.AppendJSON = %q, json.Marshal says %q", v, got, want)
	}
	var back, ref T
	if err := P(&back).Parse(want); err != nil {
		t.Fatalf("%T.Parse(%q): %v", back, want, err)
	}
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("%T.Parse(%q) = %#v, json.Unmarshal says %#v", back, want, back, ref)
	}
}

// FuzzMPD holds the manifest codec to encoding/xml. Whatever ParseMPD
// accepts, xml.Unmarshal accepts too, decoding a DeepEqual MPD; the reverse
// need not hold (ParseMPD refuses CDATA, directives, processing
// instructions, namespaces and repeated singletons). For any MPD Unmarshal
// decodes, AppendMPD writes what MarshalIndent writes, and ParseMPD reads
// it back as Unmarshal does.
func FuzzMPD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want MPD
		wantErr := xml.Unmarshal(data, &want)
		if got, err := ParseMPD(data); err == nil {
			if wantErr != nil {
				t.Fatalf("ParseMPD accepts %q, xml.Unmarshal says %v", data, wantErr)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("ParseMPD(%q) = %#v, xml.Unmarshal says %#v", data, *got, want)
			}
		}
		if wantErr == nil {
			checkAppendMPD(t, &want)
		}
	})
}

// checkAppendMPD fails unless AppendMPD writes xml.Header and MarshalIndent's
// bytes for m, and ParseMPD reads them back as xml.Unmarshal does.
func checkAppendMPD(t *testing.T, m *MPD) {
	t.Helper()
	doc, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(xml.Header), doc...)
	prefix := []byte("prefix")
	got := m.AppendMPD(prefix)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendMPD wrote\n%s\nMarshalIndent writes\n%s", got, want)
	}
	back, err := ParseMPD(want)
	if err != nil {
		t.Fatalf("ParseMPD refuses AppendMPD's %q: %v", want, err)
	}
	var ref MPD
	if err := xml.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*back, ref) {
		t.Fatalf("ParseMPD(%q) = %#v, xml.Unmarshal says %#v", want, *back, ref)
	}
}
