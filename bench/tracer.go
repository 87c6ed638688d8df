package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/dash"
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/vclock"
)

// The tracer records a span at every layer boundary, from the benchmark's
// own files: it wraps the public entry points of each layer
// (player.Algorithm, http.RoundTripper, the origin's http.Handler,
// vclock.Clock, dash.Rater) and changes nothing inside the program. A span
// is (kind, start, end, parent, session); spans stay in a preallocated
// slice until the rep ends, then settle folds them into per-layer self
// times: a span's self time is its duration minus the part of it its child
// spans cover.

// spanKind names a layer boundary; the prefix before the dot is the layer.
type spanKind uint8

const (
	kSession   spanKind = iota // bench.session: one session, the driver's own bookkeeping
	kPlay                      // player.play: player.Play (sim_plan)
	kStream                    // dash.stream: dash.Client.Stream
	kLeave                     // dash.leave: dash.Client.Leave
	kDecide                    // abr.decide: Algorithm.Decide
	kRate                      // mos.rate_chunk: Rater.RateChunk
	kRoundTrip                 // http.roundtrip: RoundTrip call -> body EOF
	kServe                     // origin.serve: the origin's ServeHTTP
	kSleep                     // vclock.sleep: wall time parked in Clock.Sleep
	kBoot                      // bench.boot: origin boot / drain + teardown around a traced fleet rep
	numKinds
)

var kindNames = [numKinds]string{
	"bench.session", "player.play", "dash.stream", "dash.leave", "abr.decide",
	"mos.rate_chunk", "http.roundtrip", "origin.serve", "vclock.sleep", "bench.boot",
}

// Span classes split the request kinds whose latencies are reported apart.
const (
	classControl uint8 = iota
	classSegment
	numClasses
)

func classOf(path string) uint8 {
	if strings.Contains(path, "/segment/") {
		return classSegment
	}
	return classControl
}

// span is one recorded interval; times are ns since the tracer's epoch and
// ids are slice index + 1 (0 = none).
type span struct {
	kind   spanKind
	class  uint8
	sess   int32 // session index, or one of the two markers below
	parent uint32
	start  int64
	end    int64
}

// Session markers for spans outside any one session.
const (
	sessOrphan int32 = -1 // caused by no traced request (autopilot wakeups): kept out of the layer sum
	sessRun    int32 = -2 // the run's own boot and teardown, on the main goroutine
)

// spanCap bounds one rep's spans (sim_plan's largest rep records ~55 k).
const spanCap = 1 << 18

type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Uint32
	// dropped counts spans begun past spanCap; any drop voids the rep.
	dropped atomic.Int64
	// connsOpened counts connections dialled (httptrace GotConn, not reused).
	connsOpened atomic.Int64
	// inflight tracks origin handlers still running.
	inflight sync.WaitGroup
	ct       *httptrace.ClientTrace

	agg layerAgg
	// kept is the first settled rep's spans, written to the trace file.
	kept []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, spanCap)}
	t.ct = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			t.connsOpened.Add(1)
		}
	}}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id. Each span owns its slot, so
// concurrent begins and ends never touch the same memory.
func (t *tracer) begin(kind spanKind, class uint8, sess int32, parent uint32) uint32 {
	id := t.next.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[id-1] = span{kind: kind, class: class, sess: sess, parent: parent, start: t.now()}
	return id
}

func (t *tracer) end(id uint32) {
	if id != 0 {
		t.spans[id-1].end = t.now()
	}
}

// spanRef is how a span finds its parent across an API that only passes a
// context (Clock.Sleep, RoundTrip) or only an HTTP request (the handler).
type spanRef struct {
	sess int32
	id   uint32
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, sess int32, id uint32) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{sess, id})
}

func spanOf(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return r
	}
	return spanRef{sess: sessOrphan}
}

// spanHeader carries "<session>.<span id>" from the client's RoundTrip to
// the origin's handler, so a server span knows the request that caused it.
const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.Itoa(int(r.sess)) + "." + strconv.FormatUint(uint64(r.id), 10)
}

func parseSpanHeader(s string) spanRef {
	a, b, ok := strings.Cut(s, ".")
	sess, err1 := strconv.Atoi(a)
	id, err2 := strconv.ParseUint(b, 10, 32)
	if !ok || err1 != nil || err2 != nil {
		return spanRef{sess: sessOrphan}
	}
	return spanRef{int32(sess), uint32(id)}
}

// --- wrappers ---

// tracedAlg spans every Decide under its session's current parent span.
type tracedAlg struct {
	player.Algorithm
	t      *tracer
	sess   int32
	parent uint32
}

func (a *tracedAlg) Decide(s *player.State) player.Decision {
	id := a.t.begin(kDecide, 0, a.sess, a.parent)
	d := a.Algorithm.Decide(s)
	a.t.end(id)
	return d
}

// tracedRater spans every RateChunk call.
type tracedRater struct {
	dash.Rater
	t      *tracer
	sess   int32
	parent uint32
}

func (r *tracedRater) RateChunk(rd *qoe.Rendering, i int) (int, bool) {
	id := r.t.begin(kRate, 0, r.sess, r.parent)
	score, ok := r.Rater.RateChunk(rd, i)
	r.t.end(id)
	return score, ok
}

// tracedClock spans the wall time a caller spends parked in Sleep.
type tracedClock struct {
	vclock.Clock
	t *tracer
}

func (c *tracedClock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return c.Clock.Sleep(ctx, d)
	}
	ref := spanOf(ctx)
	id := c.t.begin(kSleep, 0, ref.sess, ref.id)
	ok := c.Clock.Sleep(ctx, d)
	c.t.end(id)
	return ok
}

// tracedTransport spans each request from the RoundTrip call to the end of
// its body, and counts dialled connections through httptrace.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{base: base, t: t}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := spanOf(req.Context())
	id := tt.t.begin(kRoundTrip, classOf(req.URL.Path), ref.sess, ref.id)
	// A RoundTripper must not modify the caller's request: clone it.
	req = req.Clone(httptrace.WithClientTrace(req.Context(), tt.t.ct))
	req.Header.Set(spanHeader, spanRef{ref.sess, id}.header())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(id)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, id: id}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the base.
func (tt *tracedTransport) CloseIdleConnections() {
	if c, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// tracedBody ends its request's span at the first read error (EOF
// included) or at Close, whichever comes first.
type tracedBody struct {
	io.ReadCloser
	t  *tracer
	id uint32
}

func (b *tracedBody) finish() {
	if b.id != 0 {
		b.t.end(b.id)
		b.id = 0
	}
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// wrapHandler spans the origin's ServeHTTP under the client span named by
// the request's span header, and hands the span down through the request
// context so the origin's shaped sleeps nest under it.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseSpanHeader(r.Header.Get(spanHeader))
		id := t.begin(kServe, classOf(r.URL.Path), ref.sess, ref.id)
		t.inflight.Add(1)
		// Deferred, not recovered: injected resets unwind the handler with
		// http.ErrAbortHandler and must keep doing so.
		defer func() {
			t.end(id)
			t.inflight.Done()
		}()
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref.sess, id)))
	})
}

// --- settling ---

// kindAgg is one span kind's totals for the rep being settled.
type kindAgg struct {
	count int64
	dur   int64 // ns, summed
	self  int64 // ns, summed
}

// layerAgg is what settle extracts from one rep's spans.
type layerAgg struct {
	kinds [numKinds]kindAgg
	// treeSelf sums self time over every span but the orphans: with every
	// worker always inside some session it approaches W x the rep's wall
	// time, the end-to-end figure the layers must add up to.
	treeSelf   int64
	unfinished int64
	// durs holds span durations per kind and class, pooled over reps.
	durs [numKinds][numClasses]hist
}

// settle folds the rep's spans into t.agg (totals reset per rep,
// histograms accumulate) and rewinds the span buffer. The caller must have
// synchronised with every goroutine that recorded spans.
func (t *tracer) settle() error {
	n := int(t.next.Load())
	if d := t.dropped.Load(); d > 0 {
		return fmt.Errorf("trace: %d spans dropped past the %d-span buffer", d, len(t.spans))
	}
	spans := t.spans[:n]
	covered := make([]int64, n+1) // ns of each span covered by its children
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			t.agg.unfinished++
			s.end = s.start
		}
		if s.parent == 0 {
			continue
		}
		// A parent begins before its children, so its slot precedes
		// theirs and is already normalised.
		p := &spans[s.parent-1]
		if lo, hi := max(s.start, p.start), min(s.end, p.end); hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	t.agg.kinds = [numKinds]kindAgg{}
	t.agg.treeSelf = 0
	for i := range spans {
		s := &spans[i]
		dur := s.end - s.start
		self := max(dur-covered[i+1], 0)
		k := &t.agg.kinds[s.kind]
		k.count++
		k.dur += dur
		k.self += self
		t.agg.durs[s.kind][s.class].add(dur)
		if s.sess != sessOrphan {
			t.agg.treeSelf += self
		}
	}
	if t.kept == nil {
		t.kept = append([]span(nil), spans...)
	}
	t.next.Store(0)
	return nil
}

// forget discards everything settled so far.
func (t *tracer) forget() {
	t.agg = layerAgg{}
	t.kept = nil
	t.connsOpened.Store(0)
}

// writeTrace writes the kept rep's spans as a JSON array.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range t.kept {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"segment\":%t,\"session\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}",
			i+1, kindNames[s.kind], s.class == classSegment, s.sess, s.parent, s.start, s.end)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
