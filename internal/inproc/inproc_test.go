package inproc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// conformanceCase is one handler both transports must serve alike.
type conformanceCase struct {
	name     string
	method   string        // default GET
	body     string        // request body
	timeout  time.Duration // request deadline (0 = none)
	declares bool          // the handler sets Content-Length
	// readThenClose, when > 0, makes the client read exactly that many body
	// bytes and close; afterwards the handler must report on wroteAfter
	// whether one of its later Writes failed.
	readThenClose int
	handler       http.HandlerFunc
}

var wroteAfter = make(chan bool, 1)

// observed is everything about one exchange the fleet's client reads.
type observed struct {
	Status int
	// ContentLength is the response's when the handler declared one, and -1
	// otherwise: a server adds the header to a small reply that ends
	// unflushed, where in-process the length stays unknown (-1), which the
	// client treats as nothing to check the body against.
	ContentLength int64
	Sensei        http.Header // the X-Sensei-* response headers
	Body          string      // bytes delivered before the error
	// Class is how the exchange ended: "ok", "transport error" (Do failed),
	// "unexpected EOF" or "deadline exceeded" (from Do or from the body).
	Class string
}

var payload = strings.Repeat("0123456789abcdef", 64) // 1 KiB

func conformanceCases() []*conformanceCase {
	return []*conformanceCase{
		{name: "status only", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sensei-Weight-Epoch", "3")
			w.WriteHeader(http.StatusNoContent)
		}},
		{name: "silent handler replies 200", handler: func(http.ResponseWriter, *http.Request) {}},
		{name: "headers, flush, sleep, body", declares: true, handler: func(w http.ResponseWriter, r *http.Request) {
			h := w.Header()
			h.Set("Content-Length", fmt.Sprint(2*len(payload)))
			h.Set("X-Sensei-Weight-Epoch", "7")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			h.Set("X-Sensei-Weight-Epoch", "8") // after the commit: never seen
			time.Sleep(5 * time.Millisecond)
			_, _ = io.WriteString(w, payload)
			_, _ = io.WriteString(w, payload)
		}},
		{name: "declared length, short write, abort", declares: true, handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			w.Header().Set("X-Sensei-Chaos", "truncate")
			_, _ = io.WriteString(w, payload)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{name: "declared length, short write, return", declares: true, handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			_, _ = io.WriteString(w, payload)
		}},
		{name: "abort before any header", handler: func(http.ResponseWriter, *http.Request) {
			panic(http.ErrAbortHandler)
		}},
		{name: "abort behind unflushed headers", handler: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			panic(http.ErrAbortHandler)
		}},
		{name: "abort behind flushed headers", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sensei-Weight-Epoch", "2")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{name: "http.Error 503", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sensei-Chaos", "error")
			http.Error(w, "chaos: injected fault", http.StatusServiceUnavailable)
		}},
		{name: "POST echo", method: http.MethodPost, body: payload, handler: func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength != int64(len(payload)) || r.RequestURI != "/echo?sid=abc" || r.Host == "" || r.RemoteAddr == "" {
				http.Error(w, fmt.Sprintf("handler saw length %d, uri %q, host %q, peer %q",
					r.ContentLength, r.RequestURI, r.Host, r.RemoteAddr), http.StatusBadRequest)
				return
			}
			// Read first: over HTTP/1.x a handler's first Write may end its
			// request body.
			in, _ := io.ReadAll(r.Body)
			_, _ = w.Write(in)
		}},
		{name: "context dead on arrival", timeout: time.Nanosecond, handler: func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, "the handler ran")
		}},
		{name: "returns on a dead context", timeout: 50 * time.Millisecond, handler: func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}},
		{name: "returns on a dead context behind flushed headers", timeout: 50 * time.Millisecond, declares: true, handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "1024")
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}},
		{name: "writes after the client closed the body", readThenClose: len(payload), handler: func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, payload)
			w.(http.Flusher).Flush()
			failed := false
			// A socket buffers what it is given: keep writing until the
			// hang-up is visible, well past any buffer size.
			for i := 0; i < 64<<10 && !failed; i++ {
				_, err := io.WriteString(w, payload)
				failed = err != nil
			}
			wroteAfter <- failed
		}},
	}
}

// observe drives one exchange the way dash.Client does and records what
// the client can see of it.
func observe(t *testing.T, client *http.Client, base string, c *conformanceCase) observed {
	t.Helper()
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	method := c.method
	if method == "" {
		method = http.MethodGet
	}
	var body io.Reader
	if c.body != "" {
		body = strings.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+"/echo?sid=abc", body)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(err error, during string) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, context.DeadlineExceeded):
			return "deadline exceeded"
		case errors.Is(err, io.ErrUnexpectedEOF):
			return "unexpected EOF"
		}
		return during
	}
	resp, err := client.Do(req)
	if err != nil {
		return observed{Class: classify(err, "transport error")}
	}
	defer resp.Body.Close()
	o := observed{Status: resp.StatusCode, ContentLength: -1, Sensei: http.Header{}}
	if c.declares {
		o.ContentLength = resp.ContentLength
	}
	for k, v := range resp.Header {
		if strings.HasPrefix(k, "X-Sensei-") {
			o.Sensei[k] = v
		}
	}
	var got []byte
	if c.readThenClose > 0 {
		got = make([]byte, c.readThenClose)
		n, rerr := io.ReadFull(resp.Body, got)
		got, err = got[:n], rerr
		resp.Body.Close()
	} else {
		got, err = io.ReadAll(resp.Body)
	}
	o.Body, o.Class = string(got), classify(err, "body error: "+fmt.Sprint(err))
	return o
}

// TestConformsToHTTPServer: the same handlers served in-process and by an
// http.Server over loopback TCP look the same to the client, in every
// field the fleet's client reads.
func TestConformsToHTTPServer(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			afterClose := func(transport string) {
				if c.readThenClose == 0 {
					return
				}
				select {
				case failed := <-wroteAfter:
					if !failed {
						t.Errorf("%s: no Write failed after the client closed the body", transport)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: handler never finished", transport)
				}
			}

			srv := httptest.NewServer(c.handler)
			defer srv.Close()
			want := observe(t, srv.Client(), srv.URL, c)
			afterClose("tcp")

			got := observe(t, &http.Client{Transport: &Transport{Handler: c.handler}}, "http://origin.inproc", c)
			afterClose("in-process")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("in-process and TCP disagree\n in-process: %+v\n tcp:        %+v", abbreviated(got), abbreviated(want))
			}
			t.Logf("%+v", abbreviated(want))
		})
	}
}

func abbreviated(o observed) observed {
	if len(o.Body) > 32 {
		o.Body = fmt.Sprintf("%s… (%d bytes)", o.Body[:16], len(o.Body))
	}
	return o
}

// TestOtherPanicsPropagate: only http.ErrAbortHandler is a protocol event;
// a handler bug must surface in the goroutine that drove it, from RoundTrip
// or from whichever body call resumed the handler.
func TestOtherPanicsPropagate(t *testing.T) {
	caught := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	early := &Transport{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })}
	req, _ := http.NewRequest(http.MethodGet, "http://origin.inproc/", nil)
	if p := caught(func() { _, _ = early.RoundTrip(req) }); p != "boom" {
		t.Fatalf("RoundTrip recovered %v, want the handler's panic", p)
	}
	late := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
		panic("late boom")
	})}
	for name, resume := range map[string]func(io.ReadCloser){
		"Read":  func(b io.ReadCloser) { _, _ = io.ReadAll(b) },
		"Close": func(b io.ReadCloser) { _ = b.Close() },
	} {
		resp, err := late.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if p := caught(func() { resume(resp.Body) }); p != "late boom" {
			t.Fatalf("%s recovered %v, want the handler's panic", name, p)
		}
		_ = resp.Body.Close()
	}
}

// TestRoundTripperContract: the caller's request is left as it was, though
// the handler (and the mux routing it) wrote to theirs; its body is closed
// once the exchange ends, however it ends.
func TestRoundTripperContract(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v/{video}/rate", func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set("X-Sensei-Session-Id", "minted")
		r.URL.Path = "/rewritten"
		_, _ = io.WriteString(w, r.PathValue("video"))
	})
	mux.HandleFunc("POST /abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	tr := &Transport{Handler: mux}
	for _, path := range []string{"/v/Soccer1/rate", "/abort"} {
		body := &closeCounter{Reader: strings.NewReader("{}")}
		req, _ := http.NewRequest(http.MethodPost, "http://origin.inproc"+path, body)
		req.Header.Set("Content-Type", "application/json")
		resp, err := tr.RoundTrip(req)
		if err == nil {
			got, _ := io.ReadAll(resp.Body)
			if string(got) != "Soccer1" {
				t.Errorf("%s: body %q", path, got)
			}
			resp.Body.Close()
		} else if !errors.Is(err, ErrAborted) {
			t.Fatal(err)
		}
		if body.closes != 1 {
			t.Errorf("%s: request body closed %d times, want 1", path, body.closes)
		}
		if len(req.Header) != 1 || req.URL.Path != path || req.RequestURI != "" || req.Pattern != "" {
			t.Errorf("%s: the caller's request was written to: header %v, path %q, uri %q, pattern %q",
				path, req.Header, req.URL.Path, req.RequestURI, req.Pattern)
		}
	}
}

type closeCounter struct {
	io.Reader
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// TestWriteToLendsTheHandlersSlices: a WriterTo-aware client is handed the
// handler's own backing array — nothing is copied on the way.
func TestWriteToLendsTheHandlersSlices(t *testing.T) {
	pattern := bytes.Repeat([]byte{0xAB}, 64<<10)
	tr := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(pattern)
		_, _ = w.Write(pattern[:100])
	})}
	req, _ := http.NewRequest(http.MethodGet, "http://origin.inproc/", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sink lentSlices
	n, err := resp.Body.(io.WriterTo).WriteTo(&sink)
	if err != nil || n != int64(len(pattern)+100) {
		t.Fatalf("WriteTo = %d, %v", n, err)
	}
	if len(sink) != 2 || &sink[0][0] != &pattern[0] || &sink[1][0] != &pattern[0] || len(sink[1]) != 100 {
		t.Fatalf("WriteTo did not pass the handler's slices through: %d writes", len(sink))
	}
}

type lentSlices [][]byte

func (s *lentSlices) Write(p []byte) (int, error) { *s = append(*s, p); return len(p), nil }

// TestCloseMidBodyLeavesNoGoroutine: concurrent round trips abandoned
// mid-body end their handler coroutines with Close.
func TestCloseMidBodyLeavesNoGoroutine(t *testing.T) {
	tr := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			if _, err := io.WriteString(w, payload); err != nil {
				return
			}
		}
	})}
	client := &http.Client{Transport: tr}
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var head [100]byte
			for i := 0; i < 20; i++ {
				resp, err := client.Get("http://origin.inproc/")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadFull(resp.Body, head[:]); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if _, err := resp.Body.Read(head[:]); !errors.Is(err, http.ErrBodyReadAfterClose) {
					t.Errorf("Read after Close: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
