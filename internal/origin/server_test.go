package origin

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"

	"sensei/internal/video"
)

// listenLoopback opens a loopback TCP listener that the test closes if no
// server ever does.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// TestServerServeLifecycle: Serve works over a listener the caller opened,
// and a server serves one listener, once — a second Serve, or one after
// Shutdown, is an error, not a leaked http.Server.
func TestServerServeLifecycle(t *testing.T) {
	o, err := New(Config{
		Catalog:      []*video.Video{excerptOf(t, "Soccer1", 4)},
		Traces:       flatTraces(map[string]float64{"flat": 1e9}),
		DefaultTrace: "flat",
		TimeScale:    0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o)
	ln := listenLoopback(t)
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats over the served listener: %s", resp.Status)
	}

	if err := srv.Serve(listenLoopback(t)); err == nil {
		t.Fatal("second Serve on a serving server succeeded")
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start on a serving server succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Shutdown left the served listener open")
	}
	if err := srv.Serve(listenLoopback(t)); !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown: %v, want http.ErrServerClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
