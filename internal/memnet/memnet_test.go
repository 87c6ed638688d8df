package memnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The short sleeps in these tests only make it likely that the goroutine
// under test has parked before it is closed, canceled or timed out; every
// assertion holds in either order.

// pair dials l and returns both ends of the connection.
func pair(t *testing.T, l *Listener) (client, server net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
		}
		accepted <- c
	}()
	client, err := l.DialContext(context.Background(), "tcp", "ignored:80")
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted
}

// TestDeadlinesFireAndClear covers what net/http leans on: its server
// aborts a pending background read with a past read deadline and then
// clears it, and both sides set write deadlines.
func TestDeadlinesFireAndClear(t *testing.T) {
	l := Listen()
	defer l.Close()
	c, s := pair(t, l)
	defer c.Close()
	defer s.Close()
	buf := make([]byte, 4)

	// A read with nothing to read times out...
	if err := s.SetReadDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v", err)
	}
	// ...a deadline already in the past aborts a read that is parked...
	parked := make(chan error, 1)
	if err := s.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := s.Read(buf)
		parked <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := s.SetReadDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("parked read under a past deadline: %v", err)
	}
	// ...and once cleared the connection reads again.
	if err := s.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Write([]byte("ping")) }()
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("read after clearing the deadline: %q, %v", buf, err)
	}

	// A write nobody reads times out, and clears the same way.
	if err := c.SetWriteDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("lost")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %v", err)
	}
	if err := c.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = io.ReadFull(s, buf) }()
	if _, err := c.Write([]byte("pong")); err != nil {
		t.Fatalf("write after clearing the deadline: %v", err)
	}
}

// TestCloseUnblocksPeer: closing either end gives the peer's parked Read
// io.EOF and fails its Write.
func TestCloseUnblocksPeer(t *testing.T) {
	l := Listen()
	defer l.Close()
	for _, closeServer := range []bool{false, true} {
		c, s := pair(t, l)
		closer, peer := c, s
		if closeServer {
			closer, peer = s, c
		}
		parked := make(chan error, 1)
		go func() {
			_, err := peer.Read(make([]byte, 1))
			parked <- err
		}()
		time.Sleep(2 * time.Millisecond)
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-parked; err != io.EOF {
			t.Fatalf("closeServer=%v: peer's read after close: %v", closeServer, err)
		}
		if _, err := peer.Write([]byte("x")); err == nil {
			t.Fatalf("closeServer=%v: peer's write after close succeeded", closeServer)
		}
		_ = peer.Close()
	}
}

// TestListenerCloseUnblocks is what http.Server.Shutdown needs: a parked
// Accept returns, and dials — pending and future — are refused.
func TestListenerCloseUnblocks(t *testing.T) {
	l := Listen()
	acceptErr := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		acceptErr <- err
	}()
	time.Sleep(2 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptErr; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on a closed listener: %v", err)
	}

	// A dial parked with nobody accepting is released by Close.
	l = Listen()
	dialErr := make(chan error, 1)
	go func() {
		_, err := l.DialContext(context.Background(), "", "")
		dialErr <- err
	}()
	time.Sleep(2 * time.Millisecond)
	_ = l.Close()
	_ = l.Close() // twice is harmless
	if err := <-dialErr; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("pending dial on a closed listener: %v", err)
	}
	if _, err := l.DialContext(context.Background(), "", ""); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
}

func TestDialHonoursContext(t *testing.T) {
	l := Listen() // nobody accepts
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	dialErr := make(chan error, 1)
	go func() {
		_, err := l.DialContext(ctx, "", "")
		dialErr <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-dialErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a canceled context: %v", err)
	}
}

// TestConcurrentDialEchoClose runs 64 clients against one accept loop,
// each dialing, echoing and closing repeatedly, and checks nothing is left
// behind: every goroutine the test and the connections started has exited.
func TestConcurrentDialEchoClose(t *testing.T) {
	before := runtime.NumGoroutine()
	l := Listen()
	var served sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer c.Close()
				_, _ = io.Copy(c, c) // echo until the client hangs up
			}()
		}
	}()

	var clients sync.WaitGroup
	for i := 0; i < 64; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			msg := []byte{byte(i), byte(i >> 8), 0xa5}
			got := make([]byte, len(msg))
			for round := 0; round < 20; round++ {
				c, err := l.DialContext(context.Background(), "", "")
				if err != nil {
					t.Errorf("client %d: dial: %v", i, err)
					return
				}
				if _, err := c.Write(msg); err != nil {
					t.Errorf("client %d: write: %v", i, err)
				}
				if _, err := io.ReadFull(c, got); err != nil || string(got) != string(msg) {
					t.Errorf("client %d: echo %x, %v", i, got, err)
				}
				_ = c.Close()
			}
		}(i)
	}
	clients.Wait()
	_ = l.Close()
	<-acceptDone
	served.Wait()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestServesHTTP is the package's purpose in one round trip: net/http on
// both sides of the listener, a keep-alive connection reused, and a
// graceful shutdown that returns.
func TestServesHTTP(t *testing.T) {
	l := Listen()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, r.RemoteAddr+" "+r.URL.Path)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	var dials int
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials++
		return l.DialContext(ctx, network, addr)
	}}
	client := &http.Client{Transport: tr}
	for _, path := range []string{"/a", "/b"} {
		resp, err := client.Get("http://" + l.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "pipe "+path {
			t.Fatalf("GET %s: %q, %v", path, body, err)
		}
	}
	if dials != 1 {
		t.Fatalf("two sequential requests dialed %d connections, want the one kept alive", dials)
	}
	tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v", err)
	}
}
