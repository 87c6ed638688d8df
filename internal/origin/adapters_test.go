package origin

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/ingest"
	"sensei/internal/wire"
)

// adapterOrigin is the origin both adapters serve in the agreement tests:
// hotPathConfig with the closed loop on (so /rating is a route) and the
// given fault policy, with routingSID registered.
func adapterOrigin(t *testing.T, policy *chaos.Policy) *Origin {
	t.Helper()
	cfg := hotPathConfig(t)
	cfg.Ingest = &ingest.Config{MinSamples: math.MaxInt32} // never re-profiles
	cfg.Chaos = policy
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	s, err := newTestSession(o, o.cfg.Catalog[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	s.id = routingSID
	if !o.addSession(s) {
		t.Fatal("addSession refused")
	}
	return o
}

// adapterClients serves one origin per adapter: ServeHTTP behind a
// loopback httptest.Server, with a connection per request (net/http
// silently retries a replayable request on a reused connection the server
// closed, which would hide resets), and RoundTrip as an http.Client's
// transport. Each origin is returned with its client and base URL.
func adapterClients(t *testing.T, policy *chaos.Policy) map[string]struct {
	o    *Origin
	c    *http.Client
	base string
} {
	t.Helper()
	sock, fleet := adapterOrigin(t, policy), adapterOrigin(t, policy)
	srv := httptest.NewServer(sock)
	t.Cleanup(srv.Close)
	tcp := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t.Cleanup(tcp.CloseIdleConnections)
	return map[string]struct {
		o    *Origin
		c    *http.Client
		base string
	}{
		"ServeHTTP": {sock, tcp, srv.URL},
		"RoundTrip": {fleet, &http.Client{Transport: fleet}, "http://origin"},
	}
}

// exchange is what a client sees of one request: a transport error, or
// the status, the headers the origin set and the body up to the error
// that ended it.
type exchange struct {
	err     error
	status  int
	header  http.Header
	clen    int64
	body    string
	bodyErr error
	elapsed time.Duration
}

func do(t *testing.T, c *http.Client, base, method, target, body string, header http.Header) exchange {
	t.Helper()
	req, err := http.NewRequest(method, base+target, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return exchange{err: err, elapsed: time.Since(start)}
	}
	defer resp.Body.Close()
	b, berr := io.ReadAll(resp.Body)
	h := resp.Header.Clone()
	// What net/http adds on a socket and the core never sets.
	h.Del("Date")
	if resp.Header.Get("Content-Type") != "video/mp4" {
		h.Del("Content-Length")
	}
	return exchange{status: resp.StatusCode, header: h, clen: resp.ContentLength, body: string(b), bodyErr: berr, elapsed: time.Since(start)}
}

// mintedID masks the session ID a join mints, which differs by origin.
var mintedID = regexp.MustCompile(`"session_id":"[0-9a-f]{16}"`)

// TestAdaptersAgree holds the socket adapter (ServeHTTP over loopback TCP)
// and the fleet's (RoundTrip) to the same answers: every row of
// TestSegmentRoutingGolden, then the join, manifest, weights, rating,
// refresh and leave routes, each sent to a fresh origin per adapter in
// the same order, must give the same status, headers and body.
func TestAdaptersAgree(t *testing.T) {
	sides := adapterClients(t, nil)
	name := hotPathConfig(t).Catalog[0].Name
	v := "/v/" + url.PathEscape(name)
	q := "?sid=" + routingSID
	type row struct{ name, method, target, body string }
	var rows []row
	for _, r := range segmentRoutingRows(name) {
		rows = append(rows, row{r.name, r.method, r.target, ""})
	}
	rows = append(rows,
		row{"join", http.MethodPost, "/session", `{"video":"` + name + `"}`},
		row{"join, bad body", http.MethodPost, "/session", `{`},
		row{"join, oversized body", http.MethodPost, "/session", `{"video":"` + strings.Repeat("x", maxBodyBytes) + `"}`},
		row{"join, unknown video", http.MethodPost, "/session", `{"video":"Nope"}`},
		row{"manifest without sid", http.MethodGet, v + "/manifest.mpd", ""},
		row{"weights", http.MethodGet, "/weights" + q, ""},
		row{"weights without sid", http.MethodGet, "/weights", ""},
		row{"rating", http.MethodPost, "/rating" + q, `{"session_id":"` + routingSID + `","chunk":1,"epoch":1,"rating":4}`},
		row{"rating, unknown session", http.MethodPost, "/rating", `{"session_id":"feedfeedfeedfeed","chunk":1,"epoch":1,"rating":4}`},
		row{"refresh", http.MethodPost, "/refresh", `{"video":"` + name + `","from":0,"to":3}`},
		row{"segment after refresh", http.MethodGet, v + "/segment/1/1" + q, ""},
		row{"leave, unknown session", http.MethodDelete, "/session/feedfeedfeedfeed", ""},
		row{"leave", http.MethodDelete, "/session/" + routingSID, ""},
		row{"leave again", http.MethodDelete, "/session/" + routingSID, ""},
		row{"segment after leave", http.MethodGet, v + "/segment/0/0" + q, ""},
	)
	for _, r := range rows {
		got := map[string]exchange{}
		for side, s := range sides {
			x := do(t, s.c, s.base, r.method, r.target, r.body, nil)
			x.body, x.elapsed = mintedID.ReplaceAllString(x.body, `"session_id":"<minted>"`), 0
			got[side] = x
		}
		a, b := got["ServeHTTP"], got["RoundTrip"]
		if a.err != nil || b.err != nil || a.bodyErr != nil || b.bodyErr != nil {
			t.Fatalf("%s: ServeHTTP %v/%v, RoundTrip %v/%v", r.name, a.err, a.bodyErr, b.err, b.bodyErr)
		}
		if a.status != b.status || a.body != b.body || !equalHeaders(a.header, b.header) {
			t.Errorf("%s: %s %s\n  ServeHTTP %d %v %q\n  RoundTrip %d %v %q", r.name, r.method, r.target,
				a.status, a.header, trim(a.body), b.status, b.header, trim(b.body))
		}
	}
}

func equalHeaders(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if strings.Join(v, ",") != strings.Join(b[k], ",") {
			return false
		}
	}
	return true
}

func trim(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// TestAdaptersAgreeOnChaos holds both adapters to the same client-visible
// result of each fault mode on a segment: a 503 marked with
// chaos.InjectedHeader; a transport error; a transport error after the
// policy's stall; or the declared Content-Length with a short body that
// ends in io.ErrUnexpectedEOF. Requests before the fault are served whole,
// and both injectors ledger exactly the one fault.
func TestAdaptersAgreeOnChaos(t *testing.T) {
	for _, mode := range []chaos.Mode{chaos.ModeError, chaos.ModeReset, chaos.ModeStall, chaos.ModeTruncate} {
		t.Run(string(mode), func(t *testing.T) {
			p := chaos.Policy{
				Seed:             3,
				Endpoints:        map[chaos.Kind]chaos.Spec{chaos.KindSegment: {Rate: 0.99, Modes: []chaos.Mode{mode}}},
				MaxConsecutive:   1000,
				StallDelay:       5 * time.Millisecond,
				TruncateFraction: 0.25,
			}
			faultAt := -1
			for i, m := range p.Replay("k", chaos.KindSegment, 20) {
				if m == mode {
					faultAt = i
					break
				}
			}
			if faultAt < 0 {
				t.Fatal("no fault in the first 20 decisions at rate 0.99")
			}
			name := hotPathConfig(t).Catalog[0].Name
			target := "/v/" + url.PathEscape(name) + "/segment/0/0?sid=" + routingSID
			size := int(hotPathConfig(t).Catalog[0].ChunkSizeBits(0, 0) / 8)
			for side, s := range adapterClients(t, &p) {
				for i := 0; i <= faultAt; i++ {
					x := do(t, s.c, s.base, http.MethodGet, target, "", http.Header{chaos.KeyHeader: {"k"}})
					if i < faultAt {
						if x.err != nil || x.status != http.StatusOK || len(x.body) != size || x.bodyErr != nil {
							t.Fatalf("%s: clean request %d: %v, status %d, %d bytes, %v", side, i, x.err, x.status, len(x.body), x.bodyErr)
						}
						continue
					}
					switch mode {
					case chaos.ModeError:
						if x.err != nil || x.status != http.StatusServiceUnavailable || x.header.Get(chaos.InjectedHeader) != string(mode) || x.body != "chaos: injected fault\n" {
							t.Fatalf("%s: %v, status %d, %v, %q; want an injected 503", side, x.err, x.status, x.header, x.body)
						}
					case chaos.ModeReset, chaos.ModeStall:
						if x.err == nil {
							t.Fatalf("%s: status %d; want a transport error", side, x.status)
						}
						if mode == chaos.ModeStall && x.elapsed < p.StallDelay {
							t.Fatalf("%s: stalled %v; want at least %v", side, x.elapsed, p.StallDelay)
						}
					case chaos.ModeTruncate:
						want := p.Truncate(size)
						if x.err != nil || x.status != http.StatusOK || x.clen != int64(size) || len(x.body) != want ||
							!errors.Is(x.bodyErr, io.ErrUnexpectedEOF) || x.header.Get(chaos.InjectedHeader) != string(mode) {
							t.Fatalf("%s: %v, status %d, length %d, %d bytes, %v, %v; want %d of %d bytes and io.ErrUnexpectedEOF",
								side, x.err, x.status, x.clen, len(x.body), x.bodyErr, x.header, want, size)
						}
					}
				}
				if st := s.o.chaos.Stats(); st.Total != 1 || st.ByMode[string(mode)] != 1 {
					t.Fatalf("%s: ledger after one fault: %+v", side, st)
				}
				// Only a truncation's delivered prefix counts beside the clean
				// requests: the other faults never reach the route.
				want := int64(faultAt * size)
				if mode == chaos.ModeTruncate {
					want += int64(p.Truncate(size))
				}
				if st := s.o.Stats(); st.BytesServed != want {
					t.Fatalf("%s: %d bytes served, want %d", side, st.BytesServed, want)
				}
			}
		})
	}
}

// TestJoinMintsItsOwnSessionID: a standalone origin never lets a client
// choose its session ID. A join carrying the header the router once set is
// minted a fresh 16-hex ID, through either adapter, so a repeated header
// is not a duplicate.
func TestJoinMintsItsOwnSessionID(t *testing.T) {
	name := hotPathConfig(t).Catalog[0].Name
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for side, s := range adapterClients(t, nil) {
		for i := 0; i < 2; i++ {
			x := do(t, s.c, s.base, http.MethodPost, "/session", `{"video":"`+name+`"}`,
				http.Header{"X-Sensei-Session-Id": {routingSID}})
			var jr wire.JoinResponse
			if x.err != nil || x.status != http.StatusOK || jr.Parse([]byte(x.body)) != nil {
				t.Fatalf("%s: join %d: %v, status %d, %q", side, i, x.err, x.status, x.body)
			}
			if jr.SessionID == routingSID || !hex16.MatchString(jr.SessionID) {
				t.Fatalf("%s: join %d was registered as %q", side, i, jr.SessionID)
			}
		}
	}
}

// TestRoundTripperContract: RoundTrip leaves the caller's request as it
// was, though the mux routing a request it falls back on records its match
// in the request it routes, and it closes the request's body, on the
// core's routes and on the fallback alike.
func TestRoundTripperContract(t *testing.T) {
	o := adapterOrigin(t, nil)
	name := o.cfg.Catalog[0].Name
	for _, target := range []string{
		"/session",                   // the core's join
		"/v/Soc%2Fcer1/manifest.mpd", // escaped: the mux's
		"/refresh",                   // not a client route: the mux's
	} {
		body := &closeCounter{Reader: strings.NewReader(`{"video":"` + name + `","from":0,"to":1}`)}
		req, err := http.NewRequest(http.MethodPost, "http://origin"+target, body)
		if err != nil {
			t.Fatal(err)
		}
		before := *req
		beforeURL := *req.URL
		resp, err := o.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		resp.Body.Close()
		if req.Pattern != before.Pattern || *req.URL != beforeURL || len(req.Header) != len(before.Header) {
			t.Fatalf("%s: the caller's request was modified", target)
		}
		if body.closed != 1 {
			t.Fatalf("%s: request body closed %d times, want 1", target, body.closed)
		}
	}
}

type closeCounter struct {
	io.Reader
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

// TestRoundTripLendsSegmentSlices: a WriterTo-aware client is handed
// segmentPattern's own backing array, slice by slice as ServeHTTP writes
// it — nothing is copied on the way.
func TestRoundTripLendsSegmentSlices(t *testing.T) {
	o := adapterOrigin(t, nil)
	v := o.cfg.Catalog[0]
	// The top rung of the largest chunk spans more than one slice.
	chunk, size := 0, 0
	for i := 0; i < v.NumChunks(); i++ {
		if n := int(v.ChunkSizeBits(i, len(v.Ladder)-1) / 8); n > size {
			chunk, size = i, n
		}
	}
	if size <= len(segmentPattern) {
		t.Fatalf("largest segment is %d bytes, within one %d-byte slice", size, len(segmentPattern))
	}
	req, err := http.NewRequest(http.MethodGet, "http://origin"+wire.VideoPath(v.Name)+
		string(wire.AppendSegment(nil, chunk, len(v.Ladder)-1))+"?sid="+routingSID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Transport: o}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var w lenders
	n, err := resp.Body.(io.WriterTo).WriteTo(&w)
	if err != nil || n != int64(size) {
		t.Fatalf("WriteTo: %d bytes, %v; want %d", n, err, size)
	}
	for i, p := range w {
		if &p[0] != &segmentPattern[0] || (i < len(w)-1 && len(p) != len(segmentPattern)) {
			t.Fatalf("write %d of %d: %d bytes, not a slice of segmentPattern", i, len(w), len(p))
		}
	}
}

// lenders records the slices written to it.
type lenders [][]byte

func (w *lenders) Write(p []byte) (int, error) {
	*w = append(*w, p)
	return len(p), nil
}
