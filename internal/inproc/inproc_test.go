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
	"runtime/pprof"
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
		{name: "headers set after the commit", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sensei-Weight-Epoch", "4")
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, payload)
			w.Header().Set("X-Sensei-Weight-Epoch", "5") // never seen
			w.Header().Set("X-Sensei-Chaos", "error")
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
	// Read last, so a handler writing to the headers mid-body would show.
	for k, v := range resp.Header {
		if strings.HasPrefix(k, "X-Sensei-") {
			o.Sensei[k] = append([]string(nil), v...)
		}
	}
	return o
}

// TestConformsToHTTPServer: the same handlers served in-process and by an
// http.Server over loopback TCP look the same to the client, in every
// field the fleet's client reads. Every row runs twice in-process, through
// one Transport for the whole table, so each also runs on a coroutine that
// has served other exchanges before.
func TestConformsToHTTPServer(t *testing.T) {
	var current http.HandlerFunc
	shared := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { current(w, r) })}
	defer shared.CloseIdleConnections()
	inProcess := &http.Client{Transport: shared}
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

			current = c.handler
			for pass := 0; pass < 2; pass++ {
				got := observe(t, inProcess, "http://origin.inproc", c)
				afterClose("in-process")
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pass %d: in-process and TCP disagree\n in-process: %+v\n tcp:        %+v", pass, abbreviated(got), abbreviated(want))
				}
			}
			t.Logf("%+v", abbreviated(want))
		})
	}
	// One caller at a time: the whole table ran on a single coroutine.
	if n := len(shared.idle); n != 1 {
		t.Errorf("%d idle coroutines after a sequential table, want 1", n)
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
// or from whichever body call resumed the handler. The coroutine it killed
// is not reused: the next request on the same Transport is served.
func TestOtherPanicsPropagate(t *testing.T) {
	caught := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	panicking := true
	early := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if panicking {
			panic("boom")
		}
		_, _ = io.WriteString(w, payload)
	})}
	req, _ := http.NewRequest(http.MethodGet, "http://origin.inproc/", nil)
	if p := caught(func() { _, _ = early.RoundTrip(req) }); p != "boom" {
		t.Fatalf("RoundTrip recovered %v, want the handler's panic", p)
	}
	late := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
		if panicking {
			panic("late boom")
		}
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
	panicking = false
	for name, tr := range map[string]*Transport{"early": early, "late": late} {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: request after the panic: %v", name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != payload {
			t.Fatalf("%s: request after the panic read %d bytes, %v", name, len(got), err)
		}
		tr.CloseIdleConnections()
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
	if n := len(tr.idle); n > 64 {
		t.Errorf("%d idle coroutines after 64 concurrent callers", n)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRoundTripAllocBudget pins what a steady-state GET of a handler that
// writes its body once costs through http.Client: 20.00 allocations when
// every request made its own coroutine and cloned the committed headers,
// 6.00 with parked coroutines reused and the headers handed over. What is
// left is the exchange, the handler's header map and its copy of the
// request's, and http.Client's own two.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const budget = 6
	body := []byte(payload)
	tr := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	})}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	req, _ := http.NewRequest(http.MethodGet, "http://origin.inproc/", nil)
	get := func() {
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := resp.Body.(io.WriterTo).WriteTo(io.Discard); err != nil || n != int64(len(body)) {
			t.Fatalf("WriteTo = %d, %v", n, err)
		}
		resp.Body.Close()
	}
	get()
	allocs := testing.AllocsPerRun(200, get)
	t.Logf("%.2f allocations per round trip (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("%.2f allocations per round trip exceeds the budget of %d", allocs, budget)
	}
}

// TestHandlerCarriesTheRequestsLabels: a profile charges the handler to
// whoever issued the request, though the coroutine running it last served
// someone else.
func TestHandlerCarriesTheRequestsLabels(t *testing.T) {
	var profile bytes.Buffer
	tr := &Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		profile.Reset()
		_ = pprof.Lookup("goroutine").WriteTo(&profile, 1)
	})}
	defer tr.CloseIdleConnections()
	for _, slot := range []string{"s0001", "s0002"} {
		ctx := pprof.WithLabels(context.Background(), pprof.Labels("slot", slot))
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://origin.inproc/", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// debug=1 prints one record per distinct stack and label set.
		var labels string
		for _, rec := range strings.Split(profile.String(), "\n\n") {
			if strings.Contains(rec, "TestHandlerCarriesTheRequestsLabels.func1") {
				if _, rest, ok := strings.Cut(rec, "# labels: "); ok {
					labels, _, _ = strings.Cut(rest, "\n")
				}
			}
		}
		if want := `{"slot":"` + slot + `"}`; labels != want {
			t.Errorf("handler ran with labels %q, want %q", labels, want)
		}
	}
	if n := len(tr.idle); n != 1 {
		t.Fatalf("%d idle coroutines, want the one both requests ran on", n)
	}
}
