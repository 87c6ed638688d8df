package router

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sensei/internal/origin"
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
func TestRouterRoutingGolden(t *testing.T) { routingGolden(t, false) }

// TestRouterRoutingGoldenRoundTrip sends the same rows through the
// router's RoundTrip, the fleet's adapter, and holds its answers to the
// same golden.
func TestRouterRoutingGoldenRoundTrip(t *testing.T) { routingGolden(t, true) }

// routingGolden checks the router's answers to the golden's rows, through
// ServeHTTP or, with roundTrip set, through RoundTrip.
func routingGolden(t *testing.T, roundTrip bool) {
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
	rt.Shards()[rt.Owner(routingSID)].ServeJoin(rec, join, routingSID)
	if rec.Code != http.StatusOK {
		t.Fatalf("registering %s on its shard: %d %s", routingSID, rec.Code, rec.Body)
	}

	v := "/v/" + url.PathEscape(name)
	q := "?sid=" + routingSID
	rows := []struct{ name, method, target, body string }{
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
	var got strings.Builder
	minted := mintedToken
	for _, row := range rows {
		target := strings.ReplaceAll(row.target, mintedToken, minted)
		req := httptest.NewRequest(row.method, target, strings.NewReader(row.body))
		rec := httptest.NewRecorder()
		if roundTrip {
			resp, err := rt.RoundTrip(req)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			maps.Copy(rec.Header(), resp.Header)
			rec.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(rec, resp.Body)
			resp.Body.Close()
		} else {
			rt.ServeHTTP(rec, req)
		}
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
	if *update && !roundTrip {
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
