// Package inproc is an http.RoundTripper that serves each request by
// running an http.Handler in the caller's own thread of control: the
// handler is an iter.Pull coroutine of the goroutine that called RoundTrip,
// so a request costs no connection, no framing and no scheduler hand-off.
//
// The handler's Write(p) yields p to the client and returns once the
// client has consumed it — io.Writer's no-retention rule holds exactly as
// it does over a net.Pipe, and a WriterTo-aware client counts the handler's
// own slices without copying them. RoundTrip resumes the handler until its
// first body byte (or its return) and builds the response from the headers
// as they stood when the handler committed them; the body's Read resumes
// the handler again; Close runs it to its end.
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
//   - any other panic propagates to whoever resumed the handler.
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
	"strconv"
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
// round trip owns its state.
type Transport struct {
	Handler http.Handler
}

// exchange is one round trip: the handler's view of the request, its
// response writer (as *responseWriter) and the client's response and body
// (as *body), in one allocation.
type exchange struct {
	handler http.Handler
	callers *http.Request // closed, never written
	req     http.Request  // the handler's copy
	url     url.URL
	resp    http.Response

	next  func() ([]byte, bool)
	stop  func()
	yield func([]byte) bool

	header    http.Header // the handler's map
	committed http.Header // its snapshot at commit: the response's
	status    int         // 0 until committed
	declared  int64       // Content-Length at commit, -1 when absent
	written   int64       // body bytes the handler has written
	replied   bool        // the client can have the headers: flushed, or the handler ended cleanly
	aborted   bool        // the handler panicked with http.ErrAbortHandler
	pending   []byte      // the handler's slice the client has yet to consume
	err       error       // sticky result of the handler's end
	closed    bool
	reqClosed bool
}

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
	x := &exchange{handler: t.Handler, callers: req, header: make(http.Header, 4), declared: -1}
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
	x.next, x.stop = iter.Pull(x.serve)

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
		Header:        x.committed,
		ContentLength: x.declared,
		Body:          (*body)(x),
		Request:       req,
	}
	return &x.resp, nil
}

// serve is the coroutine: the handler runs here, suspended inside yield
// whenever the client holds one of its slices.
func (x *exchange) serve(yield func([]byte) bool) {
	x.yield = yield
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p) // iter.Pull re-raises it from next or stop
			}
			x.aborted = true
		}
	}()
	x.handler.ServeHTTP((*responseWriter)(x), &x.req)
}

// pull resumes the handler until it yields a slice (left in x.pending) or
// ends; at its end pull returns, then and on every later call, how the
// stream ended: io.EOF, or the error that cut it short.
func (x *exchange) pull() error {
	if x.err != nil {
		return x.err
	}
	p, ok := x.next()
	if ok {
		x.pending = p
		return nil
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

// commit fixes the status and snapshots the headers; later changes to the
// handler's map are not seen by the client, as with net/http.
func (x *exchange) commit(status int) {
	if x.status != 0 {
		return
	}
	x.status = status
	x.committed = x.header.Clone()
	if cl := x.header["Content-Length"]; len(cl) == 1 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 {
			x.declared = n
		}
	}
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

func (w *responseWriter) Header() http.Header { return w.header }

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
	x.replied = true
	if !x.yield(p) {
		return 0, errBodyGone
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

// Close runs the handler to its end — its Writes fail from here on — and
// releases the coroutine. A handler panic other than http.ErrAbortHandler
// surfaces here if the handler had not finished.
func (b *body) Close() error {
	x := (*exchange)(b)
	if x.closed {
		return nil
	}
	x.closed = true
	x.pending = nil
	defer x.closeRequestBody()
	x.stop()
	return nil
}
