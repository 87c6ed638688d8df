package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/origin"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// originWire drives one unshaped origin over W keep-alive connections with
// the smallest real request the protocol has (a bottom-rung segment), so
// per-request cost in origin + net/http dominates. abr, dash.Client and
// vclock.Virtual are bypassed: the loop below is the whole client.
type originWire struct {
	in      *inputs
	o       *origin.Origin
	srv     *http.Server
	base    string
	clients []*http.Client // one per worker, one connection each
	plan    []wireSession
	ops     []hist // per worker: one segment GET, request write -> body EOF
	tr      *tracer

	// served is the origin ledger as of the last rep's end; each rep's
	// client-side counts must equal the ledger's growth exactly.
	served origin.Stats
}

// wireSession is one planned session: a video and where in it to start.
type wireSession struct {
	v     *video.Video
	start int
}

func (ow *originWire) setup(in *inputs) error {
	ow.in = in
	catalog := video.TestSet()
	var clock vclock.Clock = vclock.NewReal()
	if ow.tr != nil {
		clock = &tracedClock{Clock: clock, t: ow.tr}
	}
	o, err := origin.New(origin.Config{
		Clock:        clock,
		Catalog:      catalog,
		Profile:      trueSensitivity,
		Traces:       map[string]*trace.Trace{"wire": {Name: "wire", BitsPerSecond: []float64{1e15}}},
		DefaultTrace: "wire",
		TimeScale:    1,
	})
	if err != nil {
		return err
	}
	ow.o = o
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		o.Close()
		return err
	}
	var handler http.Handler = o
	if ow.tr != nil {
		handler = ow.tr.wrapHandler(o)
	}
	ow.srv = &http.Server{Handler: handler}
	go func() { _ = ow.srv.Serve(ln) }() // returns ErrServerClosed at close
	ow.base = "http://" + ln.Addr().String()

	rng := stats.NewRNG(in.mixSeed)
	ow.plan = make([]wireSession, in.size.WireSessions)
	for i := range ow.plan {
		v := catalog[rng.Intn(len(catalog))]
		ow.plan[i] = wireSession{v: v, start: rng.Intn(v.NumChunks())}
	}
	ow.clients = make([]*http.Client, in.size.W)
	for i := range ow.clients {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if ow.tr != nil {
			rt = ow.tr.wrapTransport(rt)
		}
		ow.clients[i] = &http.Client{Transport: rt}
	}
	ow.ops = make([]hist, in.size.W)
	return nil
}

func (ow *originWire) close() error {
	for _, c := range ow.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ow.srv.Shutdown(ctx)
	ow.o.Close()
	return err
}

// wireCounts is one worker's client-side ledger for a rep.
type wireCounts struct {
	segments, bytes, attempted, failed int64
	err                                error
}

func (ow *originWire) rep() (repStats, error) {
	var next atomic.Int64
	counts := make([]wireCounts, ow.in.size.W)
	var wg sync.WaitGroup
	for w := range counts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &counts[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ow.plan) {
					return
				}
				if err := ow.session(w, i, c); err != nil && c.err == nil {
					c.err = err
				}
			}
		}(w)
	}
	wg.Wait()
	if ow.tr != nil {
		// A handler may still be unwinding after its client read EOF.
		ow.tr.inflight.Wait()
	}

	var r repStats
	for _, c := range counts {
		r.Segments += c.segments
		r.Bytes += c.bytes
		r.Attempted += c.attempted
		r.Failed += c.failed
		if c.err != nil {
			r.Problems = append(r.Problems, c.err.Error())
		}
	}
	st := ow.o.Stats()
	if got, want := st.SegmentsServed-ow.served.SegmentsServed, r.Segments; got != want {
		r.Problems = append(r.Problems, fmt.Sprintf("origin served %d segments this rep, clients read %d", got, want))
	}
	if got, want := st.BytesServed-ow.served.BytesServed, r.Bytes; got != want {
		r.Problems = append(r.Problems, fmt.Sprintf("origin served %d bytes this rep, clients read %d", got, want))
	}
	if st.ActiveSessions != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d sessions still registered after the rep", st.ActiveSessions))
	}
	ow.served = st
	r.Digest = uint64(r.Segments)<<40 ^ uint64(r.Bytes)
	return r, nil
}

// session is one closed-loop client session: join, manifest, weights, the
// segment GETs, leave. Any non-2xx reply or short body is a failed op.
func (ow *originWire) session(w, i int, c *wireCounts) error {
	s := ow.plan[i]
	httpc := ow.clients[w]
	ctx := context.Background()
	var root uint32
	if ow.tr != nil {
		root = ow.tr.begin(kSession, 0, int32(i), 0)
		defer ow.tr.end(root)
		ctx = withSpan(ctx, int32(i), root)
	}

	join, err := json.Marshal(origin.JoinRequest{Video: s.v.Name})
	if err != nil {
		return err
	}
	body, err := ow.do(ctx, httpc, http.MethodPost, "/session", string(join), http.StatusOK)
	if err != nil {
		return err
	}
	var jr origin.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return fmt.Errorf("origin_wire: join reply: %w", err)
	}
	sid := url.QueryEscape(jr.SessionID)
	vpath := "/v/" + url.PathEscape(s.v.Name)
	if _, err := ow.do(ctx, httpc, http.MethodGet, vpath+"/manifest.mpd?sid="+sid, "", http.StatusOK); err != nil {
		return err
	}
	if _, err := ow.do(ctx, httpc, http.MethodGet, "/weights?sid="+sid, "", http.StatusOK); err != nil {
		return err
	}
	for j := 0; j < ow.in.size.WireSegments; j++ {
		chunk := (s.start + j) % s.v.NumChunks()
		want := int64(s.v.ChunkSizeBits(chunk, 0) / 8)
		c.attempted++
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ow.base+vpath+"/segment/"+strconv.Itoa(chunk)+"/0?sid="+sid, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		got, err := fetchDiscard(httpc, req)
		if ow.tr == nil {
			ow.ops[w].add(int64(time.Since(t0)))
		}
		c.bytes += got
		if err != nil || got != want {
			c.failed++
			if err == nil {
				err = fmt.Errorf("short body: %d of %d bytes", got, want)
			}
			return fmt.Errorf("origin_wire: segment %d of %s: %w", chunk, s.v.Name, err)
		}
		c.segments++
	}
	_, err = ow.do(ctx, httpc, http.MethodDelete, "/session/"+url.PathEscape(jr.SessionID), "", http.StatusNoContent)
	return err
}

// fetchDiscard issues req and streams the body to io.Discard, as
// dash.Client does for segments; it returns the payload bytes read.
func fetchDiscard(httpc *http.Client, req *http.Request) (int64, error) {
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, errors.New(resp.Status)
	}
	return n, nil
}

// do issues one control-plane request and returns its body.
func (ow *originWire) do(ctx context.Context, httpc *http.Client, method, path, body string, want int) ([]byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ow.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("origin_wire: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("origin_wire: %s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("origin_wire: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (ow *originWire) drainOps(dst *hist) {
	for i := range ow.ops {
		dst.merge(&ow.ops[i])
		ow.ops[i].reset()
	}
}
