package wire

import (
	"context"
	"net/url"
	"strconv"
)

// Route names one request of the protocol: what the origin's typed core
// answers. GET /events and /metrics are observability, not routes.
type Route uint8

const (
	RouteJoin     Route = iota + 1 // POST /session; join, refresh and rating carry a JSON body
	RouteRefresh                   // POST /refresh
	RouteRating                    // POST /rating
	RouteLeave                     // DELETE /session/{id}
	RouteManifest                  // GET /v/{video}/manifest.mpd
	RouteSegment                   // GET /v/{video}/segment/{chunk}/{rung}
	RouteWeights                   // GET /weights
	RouteStats                     // GET /stats: the origin's ledger
)

// Method is r's HTTP method, "" for no route.
func (r Route) Method() string {
	switch {
	case r == 0:
		return ""
	case r <= RouteRating:
		return "POST"
	case r == RouteLeave:
		return "DELETE"
	}
	return "GET"
}

// Caller takes typed calls: an origin or a router in the caller's process,
// or anything that wraps one.
type Caller interface {
	Call(ctx context.Context, c *Call, a *Answer) error
}

// Call is one request of the protocol, typed: everything the origin's core
// reads of a request, with no URL, header map or body stream. A client in
// the origin's process hands it over as it stands; over HTTP it travels as
// Route's method, AppendTarget's target, Body and the chaos key header.
type Call struct {
	Route Route
	// SID is the session ?sid= names, "" for none.
	SID string
	// ID is a leave's session ID, its path's last element. A router in the
	// origin's process also sets it on a join, to register the session
	// under the ID it minted to pick the shard; no target carries that.
	ID    string
	Video string // manifest and segment
	Chunk int    // segment
	Rung  int    // segment
	Body  []byte // join, refresh and rating: the JSON body
	// Key keys the origin's fault streams (chaos.KeyHeader over HTTP); ""
	// keys them on SID.
	Key string
}

// Answer is what a Call came back with: the reply's status, the weight
// epoch it advertised (0 for none) and its body. A control reply's bytes
// are appended to Body[:0]; a segment's are only counted, N of its
// declared Len arriving. A call that fails in transport leaves it zero,
// Body's array aside.
type Answer struct {
	Status int
	Epoch  uint64
	Body   []byte
	N, Len int64
}

// AppendTarget appends c's request target, its path and ?sid= query, to
// dst. Names are escaped as path elements, so ParseTarget, given the URL
// the target parses as, reads c back whenever the escaping is the one
// url.URL would choose.
func (c *Call) AppendTarget(dst []byte) []byte {
	switch c.Route {
	case RouteJoin:
		dst = append(dst, "/session"...)
	case RouteRefresh:
		dst = append(dst, "/refresh"...)
	case RouteRating:
		dst = append(dst, "/rating"...)
	case RouteLeave:
		dst = append(append(dst, "/session/"...), url.PathEscape(c.ID)...)
	case RouteManifest:
		dst = append(append(append(dst, "/v/"...), url.PathEscape(c.Video)...), "/manifest.mpd"...)
	case RouteSegment:
		dst = append(append(append(dst, "/v/"...), url.PathEscape(c.Video)...), "/segment/"...)
		dst = append(strconv.AppendInt(dst, int64(c.Chunk), 10), '/')
		dst = strconv.AppendInt(dst, int64(c.Rung), 10)
	case RouteWeights:
		dst = append(dst, "/weights"...)
	case RouteStats:
		dst = append(dst, "/stats"...)
	}
	if c.SID != "" {
		dst = append(append(dst, "?sid="...), url.QueryEscape(c.SID)...)
	}
	return dst
}

// posts are the POST routes by path.
var posts = map[string]Route{"/session": RouteJoin, "/refresh": RouteRefresh, "/rating": RouteRating}

// ParseTarget is the origin's parser: it reads a request for u as a Call
// without allocating, its Body and Key aside. It accepts only a clean path
// (u.RawPath empty) that ServeMux would route to the same route and
// wildcards; anything else is left to the mux.
func ParseTarget(method string, u *url.URL) (c Call, ok bool) {
	if u.RawPath != "" {
		return c, false
	}
	p := u.Path
	switch method {
	case "GET":
		if p == "/weights" {
			c.Route, ok = RouteWeights, true
		} else if p == "/stats" {
			c.Route, ok = RouteStats, true
		} else if c.Video, c.Chunk, c.Rung, ok = ParseSegmentPath(p); ok {
			c.Route = RouteSegment
		} else if c.Video, ok = PathElement(p, "/v/", "/manifest.mpd"); ok {
			c.Route = RouteManifest
		}
	case "POST":
		c.Route, ok = posts[p]
	case "DELETE":
		c.Route = RouteLeave
		c.ID, ok = PathElement(p, "/session/", "")
	}
	if !ok {
		return Call{}, false
	}
	c.SID = QueryParam(u.RawQuery, "sid")
	return c, true
}
