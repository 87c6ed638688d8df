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

	"sensei/internal/crowd"
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
// video (chunk and rung), and every segment and manifest path a client
// renders for a catalog video with AppendTarget, as the origin decodes it,
// parses back to what was rendered.
func FuzzSegmentPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string, chunk, rung uint32) {
		checkAccepted(t, p)
		checkManifestAccepted(t, p)

		video := p
		c, r := int(chunk%1e9), int(rung%1e9)
		built := string((&Call{Route: RouteSegment, Video: video, Chunk: c, Rung: r}).AppendTarget(nil))
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
		m, err := url.Parse(string((&Call{Route: RouteManifest, Video: video}).AppendTarget(nil)))
		if err != nil {
			t.Fatal(err)
		}
		if gv, ok := PathElement(m.Path, "/v/", "/manifest.mpd"); !ok || gv != video {
			t.Fatalf("%q (from %q) parsed as manifest of %q, %v", m, video, gv, ok)
		}
	})
}

// FuzzCallTarget holds the protocol's renderer and parser to each other: a
// Call of any route, rendered with AppendTarget and parsed back with
// ParseTarget (the origin's parser) from the URL the target parses as,
// must come back as the same Call. ParseTarget may refuse it only where
// the mux must answer instead: a name url.URL escapes otherwise than
// AppendTarget (RawPath is set: a '/', ',' or ';' in it), or an empty or
// dot-segment name.
func FuzzCallTarget(f *testing.F) {
	f.Fuzz(func(t *testing.T, route uint8, sid, name string, chunk, rung uint32) {
		c := Call{Route: Route(route%uint8(RouteStats) + 1), SID: sid}
		switch c.Route {
		case RouteLeave:
			c.ID = name
		case RouteManifest:
			c.Video = name
		case RouteSegment:
			c.Video, c.Chunk, c.Rung = name, int(chunk%1e9), int(rung%1e9)
		}
		target := string(c.AppendTarget(nil))
		u, err := url.Parse(target)
		if err != nil {
			t.Fatalf("%+v renders as %q, which does not parse: %v", c, target, err)
		}
		got, ok := ParseTarget(c.Route.Method(), u)
		named := c.Route == RouteLeave || c.Route == RouteManifest || c.Route == RouteSegment
		muxes := u.RawPath != "" || named && (name == "" || name == "." || name == "..")
		if ok && !reflect.DeepEqual(got, c) {
			t.Fatalf("%+v renders as %q, which parses as %+v", c, target, got)
		}
		if !ok && !muxes {
			t.Fatalf("%+v renders as %q, which ParseTarget refuses", c, target)
		}
	})
}

// TestParseTargetStats: a GET of /stats, with or without a query, is the
// typed stats call; a HEAD, like any HEAD, and an unclean path are left to
// the mux, which answers them through the same route.
func TestParseTargetStats(t *testing.T) {
	for _, tc := range []struct {
		method, target string
		ok             bool
	}{
		{"GET", "/stats", true},
		{"GET", "/stats?sid=s", true},
		{"HEAD", "/stats", false},
		{"POST", "/stats", false},
		{"GET", "/stats/", false},
		{"GET", "/%73tats", false},
	} {
		u, err := url.Parse(tc.target)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := ParseTarget(tc.method, u)
		if ok != tc.ok || ok && c.Route != RouteStats {
			t.Errorf("%s %s: parsed as %+v, %v; want the stats call: %v", tc.method, tc.target, c, ok, tc.ok)
		}
	}
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
// from a zero and from a filled-in value, and leave the same value behind,
// with and without the fuzzed string as a known value.
// AppendJSON must write json.Marshal's bytes for any value Marshal
// encodes (it refuses NaN and ±Inf), and Parse must read them back as
// Unmarshal does.
func FuzzBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, s string, n int64, u uint64, x float64) {
		ws := floatsOf(data, x)
		checkBody(t, data, s, JoinRequest{Video: s, Trace: string(data), TimeScale: x},
			func() JoinRequest { return JoinRequest{Video: "v", Trace: "t", TimeScale: 2} })
		checkBody(t, data, s, JoinResponse{SessionID: string(data), Video: s, Trace: s, TimeScale: x},
			func() JoinResponse { return JoinResponse{SessionID: "s", Video: "v", Trace: "t", TimeScale: 2} })
		checkBody(t, data, s, WeightsResponse{Video: s, Epoch: u, Weights: ws},
			// Two stale slots past len: encoding/json decodes into them.
			func() WeightsResponse {
				return WeightsResponse{Video: "v", Epoch: 7, Weights: []float64{1, 2, 3, 4}[:2]}
			})
		checkParse(t, data, s, func() RefreshRequest { return RefreshRequest{Video: "v", From: 1, To: 2} })
		checkAppend(t, RefreshResponse{Video: s, Epoch: u})
		checkBody(t, data, s, RatingRequest{SessionID: s, Chunk: int(n), Epoch: u, Rating: int(int32(n >> 32))},
			func() RatingRequest { return RatingRequest{SessionID: "s", Chunk: 1, Epoch: 7, Rating: 3} })
		checkBody(t, data, s, RatingResponse{Video: string(data), Chunk: int(n), Status: s, Epoch: u},
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

// body is what a wire body that both sides encode and parse implements.
// The origin alone reads a refresh request and writes a refresh reply, so
// those implement only parsed and appended.
type body[T any] interface {
	*T
	AppendJSON([]byte) []byte
	Parse(data []byte, known ...string) error
}

type parsed[T any] interface {
	*T
	Parse(data []byte, known ...string) error
}

type appended[T any] interface {
	*T
	AppendJSON([]byte) []byte
}

// checkBody runs checkParse and checkAppend, then parses what AppendJSON
// wrote back as json.Unmarshal does.
func checkBody[T any, P body[T]](t *testing.T, data []byte, known string, v T, filled func() T) {
	t.Helper()
	checkParse[T, P](t, data, known, filled)
	want := checkAppend[T, P](t, v)
	if want == nil {
		return
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

// checkParse parses data into a zero T and into a filled-in one, against
// json.Unmarshal, with no known value and with known.
func checkParse[T any, P parsed[T]](t *testing.T, data []byte, known string, filled func() T) {
	t.Helper()
	for _, start := range []func() T{func() T { var z T; return z }, filled} {
		want := start()
		wantErr := json.Unmarshal(data, &want)
		for _, ks := range [][]string{nil, {known}} {
			got := start()
			gotErr := P(&got).Parse(data, ks...)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%T.Parse(%q, %q) = %v, json.Unmarshal says %v", got, data, ks, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%T.Parse(%q, %q) = %#v, json.Unmarshal says %#v", got, data, ks, got, want)
			}
		}
	}
}

// checkAppend encodes v against json.Marshal and returns Marshal's bytes,
// nil when Marshal refuses v.
func checkAppend[T any, P appended[T]](t *testing.T, v T) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		return nil // NaN or ±Inf: not JSON
	}
	prefix := []byte("prefix")
	got := P(&v).AppendJSON(prefix)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%T.AppendJSON = %q, json.Marshal says %q", v, got, want)
	}
	return want
}

// FuzzMPD holds the manifest codec to encoding/xml. Whatever Parse
// accepts, xml.Unmarshal accepts too, decoding a DeepEqual MPD; the reverse
// need not hold (Parse refuses CDATA, directives, processing instructions,
// namespaces and repeated singletons). Parse into a value a whole manifest
// filled first decodes the same, so reusing one is invisible. For any MPD
// Unmarshal decodes, AppendMPD writes what MarshalIndent writes, and Parse
// reads it back as Unmarshal does.
func FuzzMPD(f *testing.F) {
	full, err := BuildMPDProfile(testVideo(f), uniformW(6, 1), 1)
	if err != nil {
		f.Fatal(err)
	}
	fullDoc := full.AppendMPD(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got, reused MPD
		wantErr := xml.Unmarshal(data, &want)
		err := got.Parse(data)
		if err == nil {
			if wantErr != nil {
				t.Fatalf("Parse accepts %q, xml.Unmarshal says %v", data, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Parse(%q) = %#v, xml.Unmarshal says %#v", data, got, want)
			}
			checkWeights(t, &got)
		}
		if err := reused.Parse(fullDoc); err != nil {
			t.Fatal(err)
		}
		if rerr := reused.Parse(data); (rerr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(reused, got) {
			t.Fatalf("Parse(%q) into a filled MPD = %#v, %v; into a zero one %#v, %v", data, reused, rerr, got, err)
		}
		if wantErr == nil {
			checkAppendMPD(t, &want)
		}
	})
}

// checkWeights fails unless m.Weights reads rung 0's text as
// strings.Fields splits it.
func checkWeights(t *testing.T, m *MPD) {
	t.Helper()
	got, err := m.Weights()
	var (
		text    string
		want    []float64
		wantErr bool
	)
	if reps := m.Period.AdaptationSet.Representations; len(reps) > 0 && reps[0].SenseiWeights != "" {
		text, want = reps[0].SenseiWeights, []float64{}
		for _, f := range strings.Fields(text) {
			w, err := strconv.ParseFloat(f, 64)
			if wantErr = err != nil || !crowd.ValidWeight(w); wantErr {
				break
			}
			want = append(want, w)
		}
	}
	if (err != nil) != wantErr || err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("Weights of %q = %v, %v; strings.Fields reads %v (error %v)", text, got, err, want, wantErr)
	}
}

// checkAppendMPD fails unless AppendMPD writes xml.Header and MarshalIndent's
// bytes for m, and Parse reads them back as xml.Unmarshal does.
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
	var back, ref MPD
	if err := back.Parse(want); err != nil {
		t.Fatalf("Parse refuses AppendMPD's %q: %v", want, err)
	}
	if err := xml.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("Parse(%q) = %#v, xml.Unmarshal says %#v", want, back, ref)
	}
}
