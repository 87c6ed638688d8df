package origin

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"sensei/internal/chaos"
	"sensei/internal/wire"
)

// The origin's core answers a request with a reply; two adapters render
// it. ServeHTTP is the socket adapter: it writes the reply onto an
// http.ResponseWriter, sleeps the segment throttle or a chaos stall on the
// origin's clock between the headers and the body, and aborts with
// http.ErrAbortHandler for a reset, a stall or a truncation. Call is the
// fleet's adapter: it takes a typed wire.Call on the caller's goroutine,
// sleeps the same sleeps there and fills in a wire.Answer, with no URL,
// request, header map or response on the way.

// errAborted is Call's error for a request chaos reset or stalled: what a
// client over a socket sees as a connection closed without a reply.
var errAborted = errors.New("origin: connection closed without a reply")

// ServeHTTP implements http.Handler. The client's routes and GET /stats go
// straight to the core; ServeMux answers everything else — a HEAD, an
// escaped or unclean path and the event plane.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c, ok := wire.ParseTarget(r.Method, r.URL); ok && (c.Route != wire.RouteRating || o.feedback != nil) {
		o.serve(w, r, c)
		return
	}
	o.muxOnce.Do(o.buildMux)
	o.mux.ServeHTTP(w, r)
}

// buildMux builds ServeHTTP's fallback: every route under its ServeMux
// pattern, and the event plane's endpoints.
func (o *Origin) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", o.handle(wire.RouteJoin))
	mux.HandleFunc("DELETE /session/{id}", o.handle(wire.RouteLeave))
	mux.HandleFunc("GET /v/{video}/manifest.mpd", o.handle(wire.RouteManifest))
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", o.handleSegment)
	mux.HandleFunc("GET /weights", o.handle(wire.RouteWeights))
	mux.HandleFunc("POST /refresh", o.handle(wire.RouteRefresh))
	if o.feedback != nil {
		mux.HandleFunc("POST /rating", o.handle(wire.RouteRating))
	}
	mux.HandleFunc("GET /stats", o.handle(wire.RouteStats))
	if o.events != nil {
		// Like /stats and /refresh, the event endpoints are never faulted:
		// observability stays reachable no matter the weather.
		mux.HandleFunc("GET /events", o.handleEvents)
		mux.HandleFunc("GET /metrics", o.handleMetrics)
	}
	o.mux = mux
}

// ServeJoin serves POST /session registering the session as id: the
// router mints the ID to pick the shard, and hands it over here.
func (o *Origin) ServeJoin(w http.ResponseWriter, r *http.Request, id string) {
	o.serve(w, r, wire.Call{Route: wire.RouteJoin, ID: id, SID: sid(r)})
}

// sid is r's ?sid=.
func sid(r *http.Request) string { return wire.QueryParam(r.URL.RawQuery, "sid") }

// handle is the mux's entry to rt, for the requests ParseTarget leaves to
// it, with the wildcards the mux captured.
func (o *Origin) handle(rt wire.Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o.serve(w, r, wire.Call{Route: rt, SID: sid(r), ID: r.PathValue("id"), Video: r.PathValue("video")})
	}
}

// handleSegment is the mux's segment route: the captures are parsed as
// they always were, and a number that does not parse is refused as out of
// range, after the session checks, like one that does.
func (o *Origin) handleSegment(w http.ResponseWriter, r *http.Request) {
	c := wire.Call{Route: wire.RouteSegment, SID: sid(r), Video: r.PathValue("video")}
	var err1, err2 error
	c.Chunk, err1 = strconv.Atoi(r.PathValue("chunk"))
	c.Rung, err2 = strconv.Atoi(r.PathValue("rung"))
	if err1 != nil || err2 != nil {
		c.Chunk = -1
	}
	o.serve(w, r, c)
}

// serve answers c, r's call, and renders the reply onto w.
func (o *Origin) serve(w http.ResponseWriter, r *http.Request, c wire.Call) {
	q := request{Call: c}
	if o.chaos != nil {
		q.Key = r.Header.Get(chaos.KeyHeader)
	}
	if q.Route <= wire.RouteRating {
		q.buf = bodyBufs.Get().(*bodyBuf)
		defer bodyBufs.Put(q.buf)
		// MaxBytesReader also closes the connection after an oversized body.
		q.Body, q.err = readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), q.buf)
	}
	rp := o.answer(&q)
	switch rp.fault {
	case chaos.ModeReset:
		// ErrAbortHandler is net/http's sanctioned way to kill the
		// connection without a reply; the server recovers it silently.
		panic(http.ErrAbortHandler)
	case chaos.ModeStall:
		// Dead air, then hang up. The client's request context bounds the
		// wait, and either ending is one client-visible fault.
		p := o.chaos.Policy()
		o.cfg.Clock.Sleep(r.Context(), p.Stall())
		panic(http.ErrAbortHandler)
	}
	rp.header(w.Header())
	w.WriteHeader(rp.status)
	f, _ := w.(http.Flusher)
	if rp.sess != nil {
		// Headers go out before the shaped sleep, so the client observes
		// the stream as in flight (and DELETE gets its 409) for the whole
		// shaped duration.
		if f != nil {
			f.Flush()
		}
		if !o.cfg.Clock.Sleep(r.Context(), rp.throttle) {
			rp.sess.inflight.Add(-1) // the client went away mid-throttle
			return
		}
		o.settle(&rp)
	}
	if rp.write(w) == io.ErrUnexpectedEOF {
		// Hang up mid-transfer: the flushed prefix reaches the client,
		// which must observe a short body, not a clean EOF at the declared
		// length.
		if f != nil {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// write writes rp's body to w: a segment's delivered bytes as slices of
// segmentPattern, one Write per slice, ending in io.ErrUnexpectedEOF when
// chaos truncated it.
func (rp *reply) write(w io.Writer) error {
	if rp.sess == nil {
		_, err := w.Write(rp.body)
		return err
	}
	for off := 0; off < rp.deliver; {
		n, err := w.Write(segmentPattern[:min(len(segmentPattern), rp.deliver-off)])
		if off += n; err != nil {
			return err
		}
	}
	if rp.deliver < rp.size {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// Call is the fleet's adapter: it answers c into a on the caller's
// goroutine, sleeping a segment's throttle, or a stall, on the origin's
// clock there, and settling the segment before it returns. A control
// reply's body is copied into a.Body; a segment's is only counted. A reset
// or a stall is a transport error, a truncated segment an answer with N <
// Len and io.ErrUnexpectedEOF, and a ctx done on arrival is ctx.Err()
// before the core runs, as over a connection the client never opened.
func (o *Origin) Call(ctx context.Context, c *wire.Call, a *wire.Answer) error {
	*a = wire.Answer{Body: a.Body[:0]}
	if err := ctx.Err(); err != nil {
		return err
	}
	q := request{Call: *c}
	if q.Route <= wire.RouteRating {
		q.buf = bodyBufs.Get().(*bodyBuf)
		defer bodyBufs.Put(q.buf)
		if len(q.Body) > maxBodyBytes {
			q.Body, q.err = q.Body[:maxBodyBytes], &http.MaxBytesError{Limit: maxBodyBytes}
		}
	}
	rp := o.answer(&q)
	switch {
	case rp.fault == chaos.ModeReset:
		return errAborted
	case rp.fault == chaos.ModeStall:
		if p := o.chaos.Policy(); !o.cfg.Clock.Sleep(ctx, p.Stall()) {
			return ctx.Err()
		}
		return errAborted
	case rp.sess != nil:
		if !o.cfg.Clock.Sleep(ctx, rp.throttle) {
			rp.sess.inflight.Add(-1)
			return ctx.Err()
		}
		o.settle(&rp)
	}
	a.Status = rp.status
	if rp.epoch != nil {
		a.Epoch = rp.epoch.epoch
	}
	a.Body = append(a.Body[:0], rp.body...)
	a.N, a.Len = int64(len(rp.body)), int64(len(rp.body))
	if rp.sess != nil {
		a.N, a.Len = int64(rp.deliver), int64(rp.size)
	}
	if a.N < a.Len {
		return io.ErrUnexpectedEOF
	}
	return nil
}
