package origin

import (
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/routing.golden from this run")

// routingSID is the session every routing row addresses, fixed so error
// bodies that quote it are stable.
const routingSID = "0123456789abcdef"

// TestSegmentRoutingGolden pins what the origin answers on and around its
// segment route: status, headers and body for every row must match
// testdata/routing.golden, generated before segment GETs stopped going
// through ServeMux's wildcard captures. Rows cover a valid segment and
// each way a request can fail to be one.
func TestSegmentRoutingGolden(t *testing.T) {
	o := newHotPathOrigin(t)
	s, err := newTestSession(o, o.cfg.Catalog[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	s.id = routingSID
	if !o.addSession(s) {
		t.Fatal("addSession refused")
	}
	var got strings.Builder
	for _, row := range segmentRoutingRows(o.cfg.Catalog[0].Name) {
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, httptest.NewRequest(row.method, row.target, nil))
		fmt.Fprintf(&got, "%s: %s %s\n  status %d\n", row.name, row.method, row.target, rec.Code)
		keys := make([]string, 0, len(rec.Header()))
		for k := range rec.Header() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "  %s: %s\n", k, strings.Join(rec.Header()[k], ", "))
		}
		body := rec.Body.Bytes()
		if len(body) > 200 {
			h := fnv.New64a()
			h.Write(body)
			fmt.Fprintf(&got, "  body %d bytes, fnv64a %016x\n", len(body), h.Sum64())
		} else {
			fmt.Fprintf(&got, "  body %q\n", body)
		}
	}

	path := filepath.Join("testdata", "routing.golden")
	if *update {
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

// routingRow is one request of the routing golden.
type routingRow struct{ name, method, target string }

// segmentRoutingRows are the requests TestSegmentRoutingGolden pins, on
// and around the segment route of the catalog video name, addressed to
// routingSID.
func segmentRoutingRows(name string) []routingRow {
	v := "/v/" + url.PathEscape(name)
	q := "?sid=" + routingSID
	return []routingRow{
		{"valid segment", http.MethodGet, v + "/segment/0/0" + q},
		{"last chunk, top rung", http.MethodGet, v + "/segment/5/5" + q},
		{"leading zeros", http.MethodGet, v + "/segment/005/00" + q},
		{"leading plus", http.MethodGet, v + "/segment/+1/0" + q},
		{"non-numeric chunk", http.MethodGet, v + "/segment/x/0" + q},
		{"negative chunk", http.MethodGet, v + "/segment/-1/0" + q},
		{"out-of-range chunk", http.MethodGet, v + "/segment/6/0" + q},
		{"overflowing chunk", http.MethodGet, v + "/segment/99999999999999999999/0" + q},
		{"non-numeric rung", http.MethodGet, v + "/segment/0/x" + q},
		{"negative rung", http.MethodGet, v + "/segment/0/-1" + q},
		{"out-of-range rung", http.MethodGet, v + "/segment/0/99" + q},
		{"empty rung", http.MethodGet, v + "/segment/0/" + q},
		{"extra path element", http.MethodGet, v + "/segment/0/0/extra" + q},
		{"trailing slash", http.MethodGet, v + "/segment/0/0/" + q},
		{"escaped slash in video", http.MethodGet, "/v/Soc%2Fcer1/segment/0/0" + q},
		{"unescaped brackets in video", http.MethodGet, "/v/" + name + "/segment/0/0" + q},
		{"escaped letter in video", http.MethodGet, "/v/Soccer%31" + url.PathEscape(strings.TrimPrefix(name, "Soccer1")) + "/segment/0/0" + q},
		{"empty video", http.MethodGet, "/v//segment/0/0" + q},
		{"dot-dot video", http.MethodGet, "/v/../segment/0/0" + q},
		{"HEAD", http.MethodHead, v + "/segment/0/0" + q},
		{"POST", http.MethodPost, v + "/segment/0/0" + q},
		{"unknown video", http.MethodGet, "/v/Nope/segment/0/0" + q},
		{"missing sid", http.MethodGet, v + "/segment/0/0"},
		{"missing sid, non-numeric chunk", http.MethodGet, v + "/segment/x/0"},
		{"unknown sid", http.MethodGet, v + "/segment/0/0?sid=feedfeedfeedfeed"},
		{"unknown sid, out-of-range rung", http.MethodGet, v + "/segment/0/99?sid=feedfeedfeedfeed"},
		{"manifest", http.MethodGet, v + "/manifest.mpd" + q},
	}
}
