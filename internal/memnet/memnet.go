// Package memnet is an in-memory connection plane for net/http: a
// net.Listener whose DialContext hands the accept loop one end of a
// connected net.Pipe and returns the other. An http.Server serving the
// listener and an http.Transport dialing through it run their full
// protocol code — framing, keep-alive, deadlines, aborts — while the bytes
// move between two goroutines of one process without entering the kernel.
//
// The pipe is synchronous: a Write returns once the peer's Reads have
// consumed it, so there is no socket buffer for a sender to run ahead into.
package memnet

import (
	"context"
	"net"
	"sync"
)

// Listener accepts the connections its own DialContext creates.
type Listener struct {
	conns chan net.Conn // unbuffered: a dial completes when Accept takes it
	done  chan struct{}
	once  sync.Once
}

// Listen returns a listener ready for Accept and DialContext.
func Listen() *Listener {
	return &Listener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Accept returns the server end of the next dialed connection, or
// net.ErrClosed once the listener is closed.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and every pending or future DialContext.
// Established connections stay open; closing twice is harmless.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr returns the listener's address, usable as a URL host.
func (l *Listener) Addr() net.Addr { return addr{} }

// DialContext connects to the listener; its signature is
// http.Transport.DialContext's, and both arguments are ignored (there is
// one destination). It blocks until the accept loop takes the connection,
// ctx is done, or the listener closes.
func (l *Listener) DialContext(ctx context.Context, _, _ string) (net.Conn, error) {
	// Checked first so that a closed listener refuses even when an Accept
	// is (still) waiting and select could pick either case.
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type addr struct{}

func (addr) Network() string { return "memnet" }
func (addr) String() string  { return "memnet" }
