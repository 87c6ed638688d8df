// Package inproc is an http.RoundTripper that serves each request by
// running an http.Handler in the caller's own thread of control: the
// handler runs on an iter.Pull coroutine that only the goroutine that
// called RoundTrip resumes, so a request costs no connection, no framing
// and no scheduler hand-off.
//
// The coroutines are kept like keep-alive connections. Each one serves one
// exchange after another; when its handler returns it goes back on the
// Transport's idle list, and the next RoundTrip with nothing else idle
// takes it. CloseIdleConnections (which http.Client.CloseIdleConnections
// calls) stops the idle ones.
//
// The handler's Write(p) yields p to the client and returns once the
// client has consumed it — io.Writer's no-retention rule holds exactly as
// it does over a net.Pipe, and a WriterTo-aware client counts the handler's
// own slices without copying them. RoundTrip resumes the handler until its
// first body byte (or its return) and hands the client the headers as they
// stood when the handler committed them; the body's Read resumes the
// handler again; Close runs it to its end. While it serves a request,
// the coroutine carries the pprof labels of the request's context, so a
// profile charges the handler to the session that issued the request.
//
// What a client of net/http's transport can observe is reproduced:
//
//   - a handler that panics with http.ErrAbortHandler before anything was
//     flushed is a RoundTrip error (ErrAborted); after a flush or a body
//     byte it is io.ErrUnexpectedEOF from the body, behind the bytes
//     already delivered;
//   - a handler that returns short of the Content-Length it declared is
//     io.ErrUnexpectedEOF too;
//   - a handler that returns because the request context is done surfaces
//     ctx.Err();
//   - any other panic propagates to whoever resumed the handler, and the
//     coroutine it killed is not reused.
//
// A handler that blocks (a shaped sleep, a chaos stall) blocks its caller,
// which is the point: under vclock the client's registration covers the
// whole synchronous call chain.
package inproc

import (
	"errors"
	"io"
	"iter"
	"net/http"
	"net/url"
	"runtime/pprof"
	"strconv"
	"sync"
)

// ErrAborted is RoundTrip's error for a handler that aborted
// (http.ErrAbortHandler) before any of its response was flushed — what a
// TCP client sees as a connection closed without a reply.
var ErrAborted = errors.New("inproc: handler aborted the request without a response")

// errBodyGone is what a handler's Write returns once the client has closed
// the response body.
var errBodyGone = errors.New("inproc: client closed the response body")

// Transport serves every request with Handler. The zero value with a
// Handler set is ready to use, and it is safe for concurrent use: each
// round trip owns its state, and only the idle list is shared.
type Transport struct {
	Handler http.Handler

	mu   sync.Mutex
	idle []*server // parked coroutines, the most recently parked last
}

// server is one serving coroutine. Its sequence runs the handler for x,
// then yields nothing to report the exchange over, and serves whatever x
// is when it is resumed again.
type server struct {
	next func() ([]byte, bool)
	stop func()
	x    *exchange
}

func (s *server) run(yield func([]byte) bool) {
	for {
		x := s.x
		x.yield = yield
		// A coroutine is created with its creator's labels; a parked one
		// still has its previous user's.
		pprof.SetGoroutineLabels(x.callers.Context())
		x.serve()
		if !yield(nil) {
			return // retired by CloseIdleConnections
		}
	}
}

// take returns an idle coroutine, or a new one when none is idle.
func (t *Transport) take() *server {
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		s := t.idle[n-1]
		t.idle[n-1] = nil
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return s
	}
	t.mu.Unlock()
	s := &server{}
	s.next, s.stop = iter.Pull(s.run)
	return s
}

func (t *Transport) park(s *server) {
	s.x = nil
	t.mu.Lock()
	t.idle = append(t.idle, s)
	t.mu.Unlock()
}

// CloseIdleConnections stops every coroutine that is not serving an
// exchange. One that is serving goes back on the idle list when its
// handler returns.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, s := range idle {
		s.stop()
	}
}

// exchange is one round trip: the handler's view of the request, its
// response writer (as *responseWriter) and the client's response and body
// (as *body), in one allocation.
type exchange struct {
	t       *Transport
	srv     *server       // nil while pull resumes it and once the handler has ended
	callers *http.Request // closed, never written
	req     http.Request  // the handler's copy
	url     url.URL
	resp    http.Response

	yield func([]byte) bool

	// header is the handler's map until the commit and the response's
	// after it; late is the copy Header returns from then on, made on first
	// use. asCommitted records header's entries at the commit, so a write
	// through a map the handler kept from before can be undone when the
	// response is handed over.
	header      http.Header
	late        http.Header
	asCommitted [8]committedValue
	nCommitted  int // -1: header was cloned at the commit instead

	status    int    // 0 until committed
	declared  int64  // Content-Length at commit, -1 when absent
	written   int64  // body bytes the handler has written
	replied   bool   // the client can have the headers: flushed, or the handler ended cleanly
	aborted   bool   // the handler panicked with http.ErrAbortHandler
	pending   []byte // the handler's slice the client has yet to consume
	err       error  // sticky result of the handler's end
	closed    bool
	reqClosed bool
}

// committedValue is one single-valued header entry as committed.
type committedValue struct{ key, value string }

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		// Dead on arrival: the handler must not run, as it would not have
		// over a connection the client never opened.
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, err
	}
	x := &exchange{t: t, callers: req, header: make(http.Header, 4), declared: -1}
	// ServeMux records its match in the request it routes and handlers may
	// set headers on theirs, so the handler gets its own copy of the
	// request, its URL and its header map, filled in the way a server
	// would have parsed it.
	x.req = *req
	x.url = *req.URL
	x.req.URL = &x.url
	x.req.Header = req.Header.Clone()
	if x.req.Header == nil {
		x.req.Header = http.Header{}
	}
	x.req.RequestURI = x.url.RequestURI()
	if x.req.Host == "" {
		x.req.Host = x.url.Host
	}
	x.req.RemoteAddr = "inproc"
	if x.req.Body == nil {
		x.req.Body = http.NoBody
	}
	x.srv = t.take()
	x.srv.x = x

	// Resume the handler until there is something to hand back: its first
	// body byte, or its end. An error behind headers that were already out
	// is the client's first Read's to report.
	if err := x.pull(); err != nil && !x.replied {
		return nil, err // the handler has ended; nothing is left to release
	}
	x.resp = http.Response{
		Status:        statusLine(x.status),
		StatusCode:    x.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        x.committedHeader(),
		ContentLength: x.declared,
		Body:          (*body)(x),
		Request:       req,
	}
	return &x.resp, nil
}

// serve runs the handler, suspended inside yield whenever the client holds
// one of its slices.
func (x *exchange) serve() {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p) // iter.Pull re-raises it from next, and the coroutine is gone
			}
			x.aborted = true
		}
	}()
	x.t.Handler.ServeHTTP((*responseWriter)(x), &x.req)
}

// pull resumes the handler until it yields a slice (left in x.pending) or
// ends; at its end pull parks the coroutine and returns, then and on every
// later call, how the stream ended: io.EOF, or the error that cut it short.
func (x *exchange) pull() error {
	if x.err != nil {
		return x.err
	}
	// x.srv is nil while the handler runs, so a panic unwinding through
	// next drops the coroutine it killed; a later pull just ends the stream.
	if s := x.srv; s != nil {
		x.srv = nil
		p, ok := s.next()
		if len(p) > 0 {
			x.srv = s
			x.pending = p
			return nil
		}
		if ok {
			x.t.park(s)
		}
	}
	x.closeRequestBody()
	x.commit(http.StatusOK) // a handler that returns silently has replied 200
	ctxErr := x.callers.Context().Err()
	switch {
	case ctxErr != nil:
		x.err = ctxErr
	case x.aborted && !x.replied:
		x.err = ErrAborted
	case x.aborted, x.declared >= 0 && x.written < x.declared:
		x.err = io.ErrUnexpectedEOF
	default:
		x.err = io.EOF
	}
	// A server flushes what a handler leaves buffered when it returns; an
	// abort, or a client that has stopped listening, discards it.
	if ctxErr == nil && !x.aborted {
		x.replied = true
	}
	return x.err
}

// commit fixes the status and the headers. The handler's map becomes the
// response's without a copy: from here on Header hands the handler a
// private copy, so its later writes are not seen by the client, as with
// net/http. A write through a map kept from before the commit is undone by
// committedHeader if it lands before the response is handed over; one made
// later, while the client holds the response, would be seen.
func (x *exchange) commit(status int) {
	if x.status != 0 {
		return
	}
	x.status = status
	x.nCommitted = -1
	if len(x.header) <= len(x.asCommitted) {
		x.nCommitted = 0
		for k, v := range x.header {
			if len(v) != 1 {
				x.nCommitted = -1
				break
			}
			x.asCommitted[x.nCommitted] = committedValue{k, v[0]}
			x.nCommitted++
		}
	}
	if x.nCommitted < 0 {
		x.header = x.header.Clone()
	}
	if cl := x.header["Content-Length"]; len(cl) == 1 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 {
			x.declared = n
		}
	}
}

// committedHeader is the response's header map: the handler's own, unless
// it was written to since the commit, in which case the committed entries
// are rebuilt.
func (x *exchange) committedHeader() http.Header {
	if x.nCommitted < 0 || x.unchanged() {
		return x.header
	}
	h := make(http.Header, x.nCommitted)
	for _, e := range x.asCommitted[:x.nCommitted] {
		h[e.key] = []string{e.value}
	}
	return h
}

// unchanged reports whether the handler's map still holds exactly the
// entries it held at the commit.
func (x *exchange) unchanged() bool {
	if len(x.header) != x.nCommitted {
		return false
	}
	for _, e := range x.asCommitted[:x.nCommitted] {
		v := x.header[e.key]
		if len(v) != 1 || v[0] != e.value {
			return false
		}
	}
	return true
}

func (x *exchange) closeRequestBody() {
	if !x.reqClosed && x.callers.Body != nil {
		_ = x.callers.Body.Close() // the RoundTripper contract; nothing to report it to
	}
	x.reqClosed = true
}

func statusLine(code int) string {
	if code == http.StatusOK {
		return "200 OK"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// responseWriter is the handler's side of an exchange.
type responseWriter exchange

func (w *responseWriter) Header() http.Header {
	if w.status == 0 {
		return w.header
	}
	if w.late == nil {
		w.late = w.header.Clone()
	}
	return w.late
}

func (w *responseWriter) WriteHeader(status int) { (*exchange)(w).commit(status) }

// Flush commits the headers. It hands nothing to the client by itself:
// RoundTrip returns at the first body byte, and a handler that sleeps
// between its headers and its body sleeps inside RoundTrip.
func (w *responseWriter) Flush() {
	(*exchange)(w).commit(http.StatusOK)
	w.replied = true
}

// Write lends p to the client and returns when the client has consumed all
// of it, or an error once the client has closed the body.
func (w *responseWriter) Write(p []byte) (int, error) {
	x := (*exchange)(w)
	x.commit(http.StatusOK)
	if len(p) == 0 {
		return 0, nil
	}
	if x.closed {
		return 0, errBodyGone
	}
	x.replied = true
	x.yield(p) // a serving coroutine is never stopped, so yield returns true
	if x.closed {
		return 0, errBodyGone // Close resumed the handler to run it to its end
	}
	x.written += int64(len(p))
	return len(p), nil
}

// body is the client's side of an exchange.
type body exchange

func (b *body) Read(p []byte) (int, error) {
	x := (*exchange)(b)
	if x.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if len(x.pending) == 0 {
		if err := x.pull(); err != nil {
			return 0, err
		}
	}
	n := copy(p, x.pending)
	x.pending = x.pending[n:]
	return n, nil
}

// WriteTo hands w the handler's own slices, one Write per handler Write,
// until the stream ends: a sink that only counts never copies a byte.
func (b *body) WriteTo(w io.Writer) (n int64, err error) {
	x := (*exchange)(b)
	if x.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	for {
		if len(x.pending) > 0 {
			m, werr := w.Write(x.pending)
			n += int64(m)
			x.pending = x.pending[m:]
			if werr != nil {
				return n, werr
			}
		}
		if err = x.pull(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
	}
}

// Close runs the handler to its end — its Writes fail from here on, without
// suspending it — and parks the coroutine. A handler panic other than
// http.ErrAbortHandler surfaces here if the handler had not finished.
func (b *body) Close() error {
	x := (*exchange)(b)
	if x.closed {
		return nil
	}
	x.closed = true
	x.pending = nil
	defer x.closeRequestBody()
	for x.srv != nil {
		_ = x.pull()
	}
	return nil
}
