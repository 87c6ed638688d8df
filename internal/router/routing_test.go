package router

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sensei/internal/origin"
	"sensei/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/routing.golden from this run")

// routingSID is the session the by-sid rows address. It is registered on
// the shard the ring names for it, so every row lands on a fixed shard.
const routingSID = "0123456789abcdef"

// mintedToken stands in for the session ID the router mints on join, which
// is random; the golden records the token instead.
const mintedToken = "<minted-sid>"

// frozenClock never moves: every reading is zero and every sleep returns at
// once, so /stats ages, event timestamps and shaped deliveries come out the
// same on every run.
type frozenClock struct{}

func (frozenClock) Now() time.Duration                              { return 0 }
func (frozenClock) Sleep(ctx context.Context, _ time.Duration) bool { return ctx.Err() == nil }
func (frozenClock) Enter()                                          {}
func (frozenClock) Exit()                                           {}

// TestRouterRoutingGolden pins what the router answers on each of its
// routes and around them: status, headers and body for every row must
// match testdata/routing.golden. Rows cover the join and leave, the by-sid
// data plane, a manifest without a sid, the fanned-out /stats and /events,
// the shard-0 routes, and requests no route takes.
func TestRouterRoutingGolden(t *testing.T) {
	rt, name := goldenRouter(t)
	var got strings.Builder
	minted := mintedToken
	for _, row := range routingRows(name) {
		target := strings.ReplaceAll(row.target, mintedToken, minted)
		req := httptest.NewRequest(row.method, target, strings.NewReader(row.body))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if row.name == "join" {
			var jr struct {
				SessionID string `json:"session_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil || jr.SessionID == "" {
				t.Fatalf("join reply %q: %v", rec.Body, err)
			}
			minted = jr.SessionID
		}
		var out strings.Builder
		fmt.Fprintf(&out, "%s: %s %s\n  status %d\n", row.name, row.method, target, rec.Code)
		keys := make([]string, 0, len(rec.Header()))
		for k := range rec.Header() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "  %s: %s\n", k, strings.Join(rec.Header()[k], ", "))
		}
		body := rec.Body.Bytes()
		if rec.Header().Get("Content-Type") == "video/mp4" {
			h := fnv.New64a()
			h.Write(body)
			fmt.Fprintf(&out, "  body %d bytes, fnv64a %016x\n", len(body), h.Sum64())
		} else {
			for _, line := range strings.SplitAfter(string(body), "\n") {
				if line != "" {
					fmt.Fprintf(&out, "  | %q\n", line)
				}
			}
		}
		got.WriteString(strings.ReplaceAll(out.String(), minted, mintedToken))
	}

	path := filepath.Join("testdata", "routing.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("routing moved; got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// goldenRouter is the router the routing golden describes: four shards on
// a frozen clock with the event plane on, and routingSID registered on the
// shard the ring names for it. It returns the router and its video's name.
func goldenRouter(t *testing.T) (*Router, string) {
	t.Helper()
	cfg := testConfig(t, 4)
	cfg.Origin.Clock = frozenClock{}
	cfg.Origin.Events = &origin.EventsConfig{}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	name := cfg.Origin.Catalog[0].Name // an excerpt: "Soccer1[0:6]"
	join := httptest.NewRequest(http.MethodPost, "/session", strings.NewReader(`{"video":"`+name+`"}`))
	rec := httptest.NewRecorder()
	rt.shards[rt.ring.Owner(routingSID)].ServeJoin(rec, join, routingSID)
	if rec.Code != http.StatusOK {
		t.Fatalf("registering %s on its shard: %d %s", routingSID, rec.Code, rec.Body)
	}
	return rt, name
}

// routingRow is one request of the routing golden; a leave's target names
// the session the join row minted as mintedToken.
type routingRow struct{ name, method, target, body string }

// routingRows are the golden's rows, in order, for the catalog video name.
func routingRows(name string) []routingRow {
	v := "/v/" + url.PathEscape(name)
	q := "?sid=" + routingSID
	return []routingRow{
		{"manifest without sid", http.MethodGet, v + "/manifest.mpd", ""},
		{"events by sid", http.MethodGet, "/events" + q, ""},
		{"events without sid", http.MethodGet, "/events", ""},
		{"metrics", http.MethodGet, "/metrics", ""},
		{"segment by sid", http.MethodGet, v + "/segment/0/0" + q, ""},
		{"manifest by sid", http.MethodGet, v + "/manifest.mpd" + q, ""},
		{"weights by sid", http.MethodGet, "/weights" + q, ""},
		{"refresh", http.MethodPost, "/refresh", `{"video":"` + name + `","from":0,"to":3}`},
		{"stats fan-out", http.MethodGet, "/stats", ""},
		{"wrong method", http.MethodPut, "/weights" + q, ""},
		{"unknown path", http.MethodGet, "/nope", ""},
		{"dot-dot path", http.MethodGet, "/v/../weights" + q, ""},
		{"join", http.MethodPost, "/session", `{"video":"` + name + `"}`},
		{"leave", http.MethodDelete, "/session/" + mintedToken, ""},
	}
}

// TestRouterCallAgrees holds the router's typed adapter to its golden:
// the golden's rows go to two routers built alike, one through ServeHTTP
// and the other through Call for every row ParseTarget takes as a call,
// the merged /stats included (through ServeHTTP otherwise, /events and
// /metrics included). Both must answer each row with the same status,
// weight epoch and body.
func TestRouterCallAgrees(t *testing.T) {
	routers := [2]*Router{}
	var name string
	for i := range routers {
		routers[i], name = goldenRouter(t)
	}
	minted := [2]string{mintedToken, mintedToken}
	calls := 0
	for _, row := range routingRows(name) {
		var got [2]wire.Answer
		for i, rt := range routers {
			target := strings.ReplaceAll(row.target, mintedToken, minted[i])
			u, err := url.Parse(target)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := wire.ParseTarget(row.method, u)
			a := &got[i]
			if i == 1 && ok {
				c.Body = []byte(row.body)
				if err := rt.Call(context.Background(), &c, a); err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				calls++
			} else {
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(row.method, target, strings.NewReader(row.body)))
				a.Status, a.Body, a.N = rec.Code, rec.Body.Bytes(), int64(rec.Body.Len())
				a.Epoch, _ = strconv.ParseUint(rec.Header().Get(wire.WeightEpochHeader), 10, 64)
				if ok && c.Route == wire.RouteSegment && a.Status == http.StatusOK {
					a.Body = nil // Call counts a segment's bytes
				}
			}
			if row.name == "join" {
				var jr wire.JoinResponse
				if err := jr.Parse(a.Body); err != nil || jr.SessionID == "" {
					t.Fatalf("join reply %q: %v", a.Body, err)
				}
				minted[i] = jr.SessionID
			}
			a.Body = bytes.ReplaceAll(a.Body, []byte(minted[i]), []byte(mintedToken))
		}
		h, c := got[0], got[1]
		if h.Status != c.Status || h.Epoch != c.Epoch || h.N != c.N || !bytes.Equal(h.Body, c.Body) {
			t.Errorf("%s: ServeHTTP %d epoch %d, %d bytes %q; Call %d epoch %d, %d bytes %q",
				row.name, h.Status, h.Epoch, h.N, h.Body, c.Status, c.Epoch, c.N, c.Body)
		}
	}
	// Every golden row is a call but six: the event plane's three (/events
	// with and without a sid, /metrics) and the three no route takes (a
	// wrong method, an unknown path, an unclean one).
	if want := len(routingRows(name)) - 6; calls != want {
		t.Fatalf("%d rows went through Call, want %d", calls, want)
	}
}

// TestSIDlessManifestShard: a manifest without a sid goes to the shard the
// ring names for the empty ID, through ServeHTTP and through Call alike.
func TestSIDlessManifestShard(t *testing.T) {
	rt, name := goldenRouter(t)
	served := func() []int64 {
		var n []int64
		for _, o := range rt.shards {
			n = append(n, o.Stats().ManifestsServed)
		}
		return n
	}
	want := make([]int64, len(rt.shards))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v/"+url.PathEscape(name)+"/manifest.mpd", nil))
	want[rt.ring.Owner("")]++
	if got := served(); rec.Code != http.StatusOK || !slices.Equal(got, want) {
		t.Fatalf("ServeHTTP: status %d, manifests served by shard %v; want %v", rec.Code, got, want)
	}
	var a wire.Answer
	err := rt.Call(context.Background(), &wire.Call{Route: wire.RouteManifest, Video: name}, &a)
	want[rt.ring.Owner("")]++
	if got := served(); err != nil || a.Status != http.StatusOK || !slices.Equal(got, want) {
		t.Fatalf("Call: status %d, %v, manifests served by shard %v; want %v", a.Status, err, got, want)
	}
}
