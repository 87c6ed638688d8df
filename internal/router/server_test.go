package router

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestServerServe: the router is served over a listener the caller opened,
// through the lifecycle it shares with origin.Server, whose state machine
// origin's TestServerServeLifecycle covers; errors carry the router's name.
func TestServerServe(t *testing.T) {
	rt, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"shards"`) {
		t.Fatalf("GET /stats over the served listener: %s %s", resp.Status, body)
	}
	if err := srv.Serve(ln); err == nil || !strings.HasPrefix(err.Error(), "router: ") {
		t.Fatalf("second Serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
