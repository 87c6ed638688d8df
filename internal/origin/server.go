package origin

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// DefaultShutdownTimeout bounds Close's graceful drain.
const DefaultShutdownTimeout = 10 * time.Second

// HTTPServer runs one handler on one listener with graceful shutdown: the
// lifecycle origin.Server and router.Server share (both embed it).
// Shutdown(ctx) stops accepting new connections and drains in-flight
// segment streams (which can be long — they are trace-shaped) until ctx
// expires, at which point it force-closes the stragglers.
type HTTPServer struct {
	name    string // error and log prefix
	handler http.Handler
	logf    func(format string, args ...any) // may be nil
	onClose func()                           // closes what handler serves

	mu      sync.Mutex
	httpSrv *http.Server // non-nil once serving
	closed  bool         // Shutdown was called
}

// NewHTTPServer serves handler under name (the prefix of its errors and
// log lines). onClose runs on every Shutdown/Close, served or not.
func NewHTTPServer(name string, handler http.Handler, logf func(format string, args ...any), onClose func()) *HTTPServer {
	return &HTTPServer{name: name, handler: handler, logf: logf, onClose: onClose}
}

// Start listens on TCP addr ("127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine. It returns the bound address.
func (s *HTTPServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.name, err)
	}
	if err := s.Serve(ln); err != nil {
		_ = ln.Close() // never handed to a serve loop
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve serves connections accepted from ln in a background goroutine and
// returns at once; Shutdown closes ln. A server serves one listener, once:
// a second call, or one after Shutdown, returns an error and leaves ln to
// the caller.
func (s *HTTPServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%s: serve: %w", s.name, http.ErrServerClosed)
	}
	if s.httpSrv != nil {
		return fmt.Errorf("%s: serve: already serving", s.name)
	}
	srv := &http.Server{Handler: s.handler}
	s.httpSrv = srv
	go func() {
		// ErrServerClosed is the normal Shutdown/Close path; anything else
		// is a real serving failure worth surfacing.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && s.logf != nil {
			s.logf("%s: serve: %v", s.name, err)
		}
	}()
	return nil
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests (segment streams included) drain until ctx expires,
// then remaining connections are force-closed. What the handler serves
// (the origin and its janitor, or the router and every shard) closes
// either way.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	defer s.onClose()
	s.mu.Lock()
	s.closed = true
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	if err != nil {
		// Drain deadline hit: cut the stragglers loose.
		if cerr := srv.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	return err
}

// Close is Shutdown with DefaultShutdownTimeout, for callers without a
// context at hand.
func (s *HTTPServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultShutdownTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// Server binds an Origin to a listener (Start: TCP; Serve: any
// net.Listener). The origin's lifecycle is tied to the server's:
// Shutdown/Close also close it.
type Server struct {
	*HTTPServer
}

// NewServer wraps o.
func NewServer(o *Origin) *Server {
	return &Server{HTTPServer: NewHTTPServer("origin", o, o.cfg.Logf, o.Close)}
}
