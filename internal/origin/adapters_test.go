package origin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
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

// adapterSides serves one origin per adapter and sends each its calls:
// ServeHTTP behind a loopback httptest.Server, as an HTTP client over a
// socket sends them, with a connection per request (net/http silently
// retries a replayable request on a reused connection the server closed,
// which would hide resets), and Call on the caller's goroutine.
func adapterSides(t *testing.T, policy *chaos.Policy) map[string]side {
	t.Helper()
	sock, typed := adapterOrigin(t, policy), adapterOrigin(t, policy)
	srv := httptest.NewServer(sock)
	t.Cleanup(srv.Close)
	tcp := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t.Cleanup(tcp.CloseIdleConnections)
	return map[string]side{
		"ServeHTTP": {sock, func(c *wire.Call) exchange { return overSocket(t, tcp, srv.URL, c, nil) }},
		"Call": {typed, func(c *wire.Call) (x exchange) {
			start := time.Now()
			x.err = typed.Call(context.Background(), c, &x.a)
			x.elapsed = time.Since(start)
			return x
		}},
	}
}

// side is one adapter's origin and the way calls reach it.
type side struct {
	o    *Origin
	send func(c *wire.Call) exchange
}

// exchange is what a client sees of one call: the Answer and, beside it,
// the transport or body error that cut it short; how long it took; and,
// over a socket, the fault the reply is marked with.
type exchange struct {
	a        wire.Answer
	err      error
	elapsed  time.Duration
	injected string
	ctype    string // the socket's Content-Type
}

// overSocket sends c with header over HTTP, as dash.Client does, and reads
// what came back as an Answer: the status, the weight-epoch header, the
// body (a segment's only counted), how much of it arrived, and its
// declared length (what arrived, when none is declared).
func overSocket(t *testing.T, hc *http.Client, base string, c *wire.Call, header http.Header) (x exchange) {
	t.Helper()
	req, err := http.NewRequest(c.Route.Method(), base+string(c.AppendTarget(nil)), bytes.NewReader(c.Body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header = header.Clone()
	if req.Header == nil {
		req.Header = http.Header{}
	}
	if c.Key != "" {
		req.Header.Set(chaos.KeyHeader, c.Key)
	}
	start := time.Now()
	defer func() { x.elapsed = time.Since(start) }()
	resp, err := hc.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	x.a = wire.Answer{Status: resp.StatusCode, N: int64(len(body)), Len: resp.ContentLength}
	x.a.Epoch, _ = strconv.ParseUint(resp.Header.Get(wire.WeightEpochHeader), 10, 64)
	if x.a.Len < 0 {
		x.a.Len = x.a.N
	}
	if c.Route != wire.RouteSegment || x.a.Status != http.StatusOK {
		x.a.Body = body
	}
	x.err, x.injected, x.ctype = err, resp.Header.Get(chaos.InjectedHeader), resp.Header.Get("Content-Type")
	return x
}

// mintedID masks the session ID a join mints, which differs by origin.
var mintedID = regexp.MustCompile(`"session_id":"[0-9a-f]{16}"`)

// wallStats masks what /stats reports of a session that differs by origin:
// the ID its join minted and its ages on the wall clock.
var wallStats = regexp.MustCompile(`("id": |"idle_sec": |"uptime_sec": )[^,\n]*`)

// TestAdaptersAgree holds the socket adapter (ServeHTTP over loopback TCP)
// and the fleet's (Call) to the same answers: every row of
// TestSegmentRoutingGolden that ParseTarget takes as a call, then the
// join, manifest, weights, rating, refresh and leave routes, and last
// /stats, each sent to a fresh origin per adapter in the same order, must
// give the same status, epoch, body and lengths (and /stats, over the
// socket, its JSON Content-Type). /stats bodies are compared with their
// wall-clock values masked, and each side's length against its own body.
func TestAdaptersAgree(t *testing.T) {
	sides := adapterSides(t, nil)
	name := hotPathConfig(t).Catalog[0].Name
	type row struct {
		name string
		c    wire.Call
	}
	var rows []row
	for _, r := range segmentRoutingRows(name) {
		u, err := url.Parse(r.target)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := wire.ParseTarget(r.method, u); ok {
			rows = append(rows, row{r.name, c})
		}
	}
	if len(rows) != 10 {
		t.Fatalf("ParseTarget takes %d routing rows as calls, want 10", len(rows))
	}
	join := func(body string) wire.Call { return wire.Call{Route: wire.RouteJoin, Body: []byte(body)} }
	rating := `{"session_id":"` + routingSID + `","chunk":1,"epoch":1,"rating":4}`
	rows = append(rows,
		row{"join", join(`{"video":"` + name + `"}`)},
		row{"join, bad body", join(`{`)},
		row{"join, oversized body", join(`{"video":"` + strings.Repeat("x", maxBodyBytes) + `"}`)},
		row{"join, unknown video", join(`{"video":"Nope"}`)},
		row{"manifest without sid", wire.Call{Route: wire.RouteManifest, Video: name}},
		row{"weights", wire.Call{Route: wire.RouteWeights, SID: routingSID}},
		row{"weights without sid", wire.Call{Route: wire.RouteWeights}},
		row{"rating", wire.Call{Route: wire.RouteRating, SID: routingSID, Body: []byte(rating)}},
		row{"rating, unknown session", wire.Call{Route: wire.RouteRating, Body: []byte(strings.Replace(rating, routingSID, "feedfeedfeedfeed", 1))}},
		row{"refresh", wire.Call{Route: wire.RouteRefresh, Body: []byte(`{"video":"` + name + `","from":0,"to":3}`)}},
		row{"segment after refresh", wire.Call{Route: wire.RouteSegment, SID: routingSID, Video: name, Chunk: 1, Rung: 1}},
		row{"leave, unknown session", wire.Call{Route: wire.RouteLeave, ID: "feedfeedfeedfeed"}},
		row{"leave", wire.Call{Route: wire.RouteLeave, ID: routingSID}},
		row{"leave again", wire.Call{Route: wire.RouteLeave, ID: routingSID}},
		row{"segment after leave", wire.Call{Route: wire.RouteSegment, SID: routingSID, Video: name}},
		row{"stats", wire.Call{Route: wire.RouteStats}},
	)
	for _, r := range rows {
		got := map[string]exchange{}
		for name, s := range sides {
			x := s.send(&r.c)
			if r.c.Route == wire.RouteStats {
				checkStatsEncoding(t, name, x.a.Body)
				// The body's wall-clock ages can print with different digit
				// counts on the two origins, so its length is checked per
				// side, and the masked bodies are compared below.
				if x.a.N != int64(len(x.a.Body)) || x.a.Len != x.a.N {
					t.Errorf("%s: /stats: %d of %d bytes, body %d", name, x.a.N, x.a.Len, len(x.a.Body))
				}
				x.a.N, x.a.Len = 0, 0
			}
			x.a.Body = mintedID.ReplaceAll(x.a.Body, []byte(`"session_id":"<minted>"`))
			x.a.Body = wallStats.ReplaceAll(x.a.Body, []byte(`$1<masked>`))
			got[name] = x
		}
		a, b := got["ServeHTTP"], got["Call"]
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: ServeHTTP %v, Call %v", r.name, a.err, b.err)
		}
		if r.c.Route == wire.RouteStats && a.ctype != "application/json" {
			t.Errorf("%s: ServeHTTP's Content-Type is %q, want application/json", r.name, a.ctype)
		}
		if a.a.Status != b.a.Status || a.a.Epoch != b.a.Epoch || a.a.N != b.a.N || a.a.Len != b.a.Len || !bytes.Equal(a.a.Body, b.a.Body) {
			t.Errorf("%s: %s %s\n  ServeHTTP %d epoch %d, %d of %d bytes %q\n  Call      %d epoch %d, %d of %d bytes %q",
				r.name, r.c.Route.Method(), r.c.AppendTarget(nil),
				a.a.Status, a.a.Epoch, a.a.N, a.a.Len, trim(a.a.Body), b.a.Status, b.a.Epoch, b.a.N, b.a.Len, trim(b.a.Body))
		}
	}
}

// checkStatsEncoding fails unless body is what GET /stats has always
// written: a Stats as json.Encoder writes it indented by two spaces.
func checkStatsEncoding(t *testing.T, side string, body []byte) {
	t.Helper()
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("%s: /stats: %v", side, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s: /stats body\n%s\nis not json.Encoder's indented\n%s", side, body, want.Bytes())
	}
}

func trim(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "…"
	}
	return string(b)
}

// TestAdaptersAgreeOnChaos holds both adapters to the same client-visible
// result of each fault mode on a segment: a 503 (over a socket, marked
// with chaos.InjectedHeader); a transport error; a transport error after
// the policy's stall; or the declared length with a short body that ends
// in io.ErrUnexpectedEOF. Requests before the fault are served whole, and
// both injectors ledger exactly the one fault.
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
			v := hotPathConfig(t).Catalog[0]
			c := wire.Call{Route: wire.RouteSegment, SID: routingSID, Video: v.Name, Key: "k"}
			size := int64(v.ChunkSizeBits(0, 0) / 8)
			for name, s := range adapterSides(t, &p) {
				for i := 0; i <= faultAt; i++ {
					x := s.send(&c)
					a := x.a
					if i < faultAt {
						if x.err != nil || a.Status != http.StatusOK || a.N != size || a.Len != size {
							t.Fatalf("%s: clean request %d: %v, status %d, %d of %d bytes", name, i, x.err, a.Status, a.N, a.Len)
						}
						continue
					}
					marked := name == "Call" || x.injected == string(mode)
					switch mode {
					case chaos.ModeError:
						if x.err != nil || a.Status != http.StatusServiceUnavailable || !marked || string(a.Body) != "chaos: injected fault\n" {
							t.Fatalf("%s: %v, status %d, marked %q, %q; want an injected 503", name, x.err, a.Status, x.injected, a.Body)
						}
					case chaos.ModeReset, chaos.ModeStall:
						if x.err == nil {
							t.Fatalf("%s: status %d; want a transport error", name, a.Status)
						}
						if mode == chaos.ModeStall && x.elapsed < p.StallDelay {
							t.Fatalf("%s: stalled %v; want at least %v", name, x.elapsed, p.StallDelay)
						}
					case chaos.ModeTruncate:
						want := int64(p.Truncate(int(size)))
						if !errors.Is(x.err, io.ErrUnexpectedEOF) || a.Status != http.StatusOK || a.Len != size || a.N != want || !marked {
							t.Fatalf("%s: %v, status %d, %d of %d bytes, marked %q; want %d of %d bytes and io.ErrUnexpectedEOF",
								name, x.err, a.Status, a.N, a.Len, x.injected, want, size)
						}
					}
				}
				if st := s.o.chaos.Stats(); st.Total != 1 || st.ByMode[string(mode)] != 1 {
					t.Fatalf("%s: ledger after one fault: %+v", name, st)
				}
				// Only a truncation's delivered prefix counts beside the clean
				// requests: the other faults never reach the route.
				want := int64(faultAt) * size
				if mode == chaos.ModeTruncate {
					want += int64(p.Truncate(int(size)))
				}
				if st := s.o.Stats(); st.BytesServed != want {
					t.Fatalf("%s: %d bytes served, want %d", name, st.BytesServed, want)
				}
			}
		})
	}
}

// TestJoinMintsItsOwnSessionID: a client never chooses its session ID. A
// join over a socket carrying the header the router once set, and a
// client's join call, are each minted a fresh 16-hex ID, so a repeated
// join is not a duplicate.
func TestJoinMintsItsOwnSessionID(t *testing.T) {
	name := hotPathConfig(t).Catalog[0].Name
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	c := wire.Call{Route: wire.RouteJoin, Body: []byte(`{"video":"` + name + `"}`)}
	sides := adapterSides(t, nil)
	srv := httptest.NewServer(sides["ServeHTTP"].o)
	t.Cleanup(srv.Close)
	joins := map[string]func() exchange{
		"ServeHTTP": func() exchange {
			return overSocket(t, srv.Client(), srv.URL, &c, http.Header{"X-Sensei-Session-Id": {routingSID}})
		},
		"Call": func() exchange { return sides["Call"].send(&c) },
	}
	for side, join := range joins {
		seen := map[string]bool{}
		for i := 0; i < 2; i++ {
			x := join()
			var jr wire.JoinResponse
			if x.err != nil || x.a.Status != http.StatusOK || jr.Parse(x.a.Body) != nil {
				t.Fatalf("%s: join %d: %v, status %d, %q", side, i, x.err, x.a.Status, x.a.Body)
			}
			if jr.SessionID == routingSID || !hex16.MatchString(jr.SessionID) || seen[jr.SessionID] {
				t.Fatalf("%s: join %d was registered as %q", side, i, jr.SessionID)
			}
			seen[jr.SessionID] = true
		}
	}
}

// TestSegmentBytesAreNeverCopied: ServeHTTP hands its ResponseWriter
// segmentPattern's own backing array, slice by slice, and Call copies no
// segment byte at all: it counts them, leaving the Answer's body as it was.
func TestSegmentBytesAreNeverCopied(t *testing.T) {
	o := adapterOrigin(t, nil)
	v := o.cfg.Catalog[0]
	// The top rung of the largest chunk spans more than one slice.
	c := wire.Call{Route: wire.RouteSegment, SID: routingSID, Video: v.Name, Rung: len(v.Ladder) - 1}
	size := 0
	for i := 0; i < v.NumChunks(); i++ {
		if n := int(v.ChunkSizeBits(i, c.Rung) / 8); n > size {
			c.Chunk, size = i, n
		}
	}
	if size <= len(segmentPattern) {
		t.Fatalf("largest segment is %d bytes, within one %d-byte slice", size, len(segmentPattern))
	}
	w := &lender{h: http.Header{}}
	o.ServeHTTP(w, httptest.NewRequest(http.MethodGet, string(c.AppendTarget(nil)), nil))
	n := 0
	for i, p := range w.writes {
		if &p[0] != &segmentPattern[0] || (i < len(w.writes)-1 && len(p) != len(segmentPattern)) {
			t.Fatalf("write %d of %d: %d bytes, not a slice of segmentPattern", i, len(w.writes), len(p))
		}
		n += len(p)
	}
	if n != size {
		t.Fatalf("ServeHTTP wrote %d bytes, want %d", n, size)
	}
	a := wire.Answer{Body: make([]byte, 0, 8)}
	if err := o.Call(context.Background(), &c, &a); err != nil || a.N != int64(size) || a.Len != int64(size) {
		t.Fatalf("Call: %d of %d bytes, %v; want %d", a.N, a.Len, err, size)
	}
	if len(a.Body) != 0 || cap(a.Body) != 8 {
		t.Fatalf("Call left a %d-byte body of capacity %d; a segment's bytes are only counted", len(a.Body), cap(a.Body))
	}
}

// lender is a ResponseWriter that records the slices written to it.
type lender struct {
	h      http.Header
	writes [][]byte
}

func (w *lender) Header() http.Header { return w.h }
func (w *lender) WriteHeader(int)     {}
func (w *lender) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}
