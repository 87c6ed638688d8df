// Package dash is SENSEI's streaming client (§6 of the paper): it drives
// any player.Algorithm over HTTP against the multi-tenant origin, reads the
// SenseiWeights manifest extension and the live weight plane through the
// protocol in internal/wire, and implements the MSE-style delayed
// source-buffer sink that realizes SENSEI's proactive rebuffering.
package dash

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/qoe"
	"sensei/internal/sensitivity"
	"sensei/internal/vclock"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// defaultClock is the wall clock shared by every Client without an
// explicit Clock. One shared instance (rather than one per call) keeps
// Now() readings from different call sites on one epoch, so durations
// computed as differences stay coherent.
var defaultClock = vclock.NewReal()

// DefaultRequestTimeout bounds each HTTP request the client issues when
// Client.RequestTimeout is zero. It is generous because a request can
// legitimately be slow end to end: the first manifest request to a cold
// origin triggers lazy profiling, and segment bodies arrive trace-shaped
// (a deep-fade trace at timescale 1 can hold a segment for minutes).
// Sessions running near real time should raise RequestTimeout or disable
// it with a negative value.
const DefaultRequestTimeout = 5 * time.Minute

// MinDownloadVirtualSec floors a measured segment download duration in
// virtual seconds. Local origins at small timescales can deliver a segment
// within clock resolution; without the floor the throughput sample
// bytes*8/elapsed degenerates to absurd magnitudes (up to +Inf), which
// poisons the ABR's prediction history. One virtual millisecond is far
// below any download the trace substrate can produce (the smallest chunk is
// ~1.2 Mb, the fastest trace ~tens of Mbps), so real measurements are
// untouched.
const MinDownloadVirtualSec = 1e-3

// Client streams a video from a multi-tenant origin: it drives the same
// player.Playback model as the simulator, but over HTTP on its own clock.
// It implements §6's two integration points: parsing the SenseiWeights
// manifest extension, and the MSE-style delayed source-buffer sink that
// realizes proactive rebuffering by withholding a downloaded segment from
// the playback buffer for a controlled delay.
//
// A client first joins a session (POST /session) — explicitly via Join, or
// implicitly on the first Stream — and every subsequent segment request
// carries the session ID so the origin shapes it with the session's own
// trace cursor.
//
// Every wire interaction gets a bounded retry budget with jittered
// exponential backoff (Retry), and budget exhaustion walks a
// graceful-degradation ladder instead of tearing the session: segments
// re-decide at the lowest rung, weight refreshes continue on the last
// adopted snapshot, ratings are dropped. The Resilience ledger records all
// of it, exactly enough for a fault-injecting origin to reconcile against.
type Client struct {
	// BaseURL is the origin root, e.g. "http://127.0.0.1:4123".
	BaseURL string
	// Algorithm is the ABR logic to drive.
	Algorithm player.Algorithm
	// Trace optionally names the origin-side trace the session replays;
	// empty selects the origin's default.
	Trace string
	// TimeScale must match the session's compression so buffer arithmetic
	// happens in virtual seconds. Zero adopts the timescale the origin
	// reports when the session is joined.
	TimeScale float64
	// HTTP is the client used for requests; http.DefaultClient when nil.
	HTTP *http.Client
	// Caller is the origin or router in this process; when set, BaseURL,
	// HTTP and RequestTimeout are unused, and each request is handed to it
	// as a typed call (see do).
	Caller wire.Caller
	// MaxBufferSec caps the client buffer in virtual seconds; it is
	// player.Config's field of the same name, and zero selects its default.
	// A single proactive stall is clamped to player.Config's default cap.
	MaxBufferSec float64
	// RequestTimeout bounds each HTTP request (default
	// DefaultRequestTimeout; negative disables the timeout). It is a
	// wall-clock bound on a request over a socket; a typed call to Caller
	// runs on the caller's goroutine, where a fleet's virtual clock never
	// waits on the wall clock, and is not bounded by it.
	RequestTimeout time.Duration
	// Retry is the per-request retry schedule: every wire interaction gets
	// Retry.Budget() retries with deterministically jittered exponential
	// backoff. The zero value applies par's defaults; Attempts < 0
	// disables retries entirely.
	Retry par.Backoff
	// ChaosKey, when non-empty, rides on every request as the
	// chaos.KeyHeader so a fault-injecting origin keys its deterministic
	// per-session fault streams on a stable caller-chosen identity (a
	// fleet slot) instead of the random session ID.
	ChaosKey string
	// Sensitivity optionally overrides the wire-delivered weight plane
	// with a caller-injected source: one snapshot is taken before every
	// chunk decision, exactly as player.PlayWithSource does. The parity
	// suite scripts epoch flips through it; when nil (the normal case) the
	// client follows the manifest + wire.WeightEpochHeader + GET /weights
	// refresh protocol instead.
	Sensitivity sensitivity.Source
	// Rater optionally closes the feedback loop: after each rendered chunk
	// it is asked for a 1–5 score, and every score it produces is posted to
	// the origin's POST /rating stamped with the weight epoch that chunk's
	// decision ran under. mos.Population's SessionRater is the standard
	// implementation. Requires an origin with feedback ingest enabled.
	Rater Rater
	// Clock is the timing plane the client sleeps and measures on: the
	// buffer-full wait, retry backoff pauses, and segment download timing
	// all go through it. Nil selects the shared wall clock — the historical
	// behavior. Under a virtual clock the caller must run the client inside
	// a registered activity unit (vclock.Clock.Enter/Exit); download
	// measurements then come out exact, because no simulated time passes
	// between issuing a request and the origin computing its shaped
	// delivery.
	Clock vclock.Clock
	// Events, when non-nil, receives the client's structured trace: every
	// decision, download, stall, retry, degradation and rating lands on the
	// ring as a typed qlog.Event stamped on the client's clock. Emission
	// never blocks — a full ring drops and counts. Nil disables tracing.
	Events *qlog.Ring
	// Metrics, when non-nil, receives the aggregate side of the same story
	// (decision/download/stall histograms, retry and degradation counters).
	// The fleet harness shares one registry between every client and the
	// origin so GET /metrics exposes both planes at once.
	Metrics *qlog.Metrics

	sid          string
	videoName    string
	sessionScale float64
	// url is the last HTTP request's URL, BaseURL and the call's target.
	url []byte
	// body is the JSON body of the current POST, encoded once and resent by
	// its retries. answer is the last request's, its Body the last
	// control-plane reply read (a POST's JSON, a manifest, a weights
	// document) until the next one replaces it.
	//
	// c.body is rewritten by the next POST only: a body this small goes out
	// in the transport's first flush with the request's headers, so it has
	// been read in full before the origin can answer.
	//
	// Both come from clientBufs, held through pooled: a Join, Stream or
	// Leave takes a set if the client holds none, and gives it back when
	// it fails or ends with no session joined (left, or never joined).
	// Nothing a client returns may alias them.
	body   []byte
	answer wire.Answer
	pooled *buffers
	// chaosKey is ChaosKey as a header value, shared by every request.
	chaosKey []string
	res      Resilience
	// streamedBytes / streamedChunks remember the last Stream's ledger so
	// Leave's session_leave event can carry the session totals.
	streamedBytes  int64
	streamedChunks int64
	// sinkHead receives the first bytes of each segment body; see drain.
	sinkHead [512]byte
	// s is the step machine of the Join, Stream or Leave in progress.
	s session
}

// Rater produces an in-player rating for the chunk that just finished
// rendering. r is the session's rendering so far — chunks up to and
// including i are final, later entries are zero — and ok=false skips the
// chunk (a distracted user rates nothing). Implementations are called
// sequentially, once per chunk, in playback order.
type Rater interface {
	RateChunk(r *qoe.Rendering, i int) (rating int, ok bool)
}

// Resilience is a per-session fault-handling ledger: what the wire did to
// the session and what the client did about it. Under a fault-injecting
// origin the FaultsByKind counters reconcile exactly against the
// injector's ledger — every injected fault is survived (and counted) by
// exactly one client request.
type Resilience struct {
	// Retries counts wire attempts beyond the first, across all endpoints.
	Retries int64 `json:"retries,omitempty"`
	// FaultsByKind counts observed faults per endpoint kind (chaos.Kind
	// names): every 5xx reply, transport failure, or truncated body —
	// whether or not a later retry succeeded.
	FaultsByKind map[string]int64 `json:"faults_by_kind,omitempty"`
	// Truncations counts bodies rejected by Content-Length / expected-size
	// accounting (a subset of FaultsByKind["segment"]); their partial
	// payloads enter the byte ledger but never the throughput history.
	Truncations int64 `json:"truncations,omitempty"`
	// SegmentFallbacks counts degradation-ladder drops: a segment whose
	// retry budget was exhausted at the chosen rung, re-decided at the
	// lowest rung before declaring the stream dead.
	SegmentFallbacks int64 `json:"segment_fallbacks,omitempty"`
	// StaleWeightsKept counts weight refreshes abandoned past the retry
	// budget, the session continuing on its last adopted epoch snapshot.
	StaleWeightsKept int64 `json:"stale_weights_kept,omitempty"`
	// RatingsDropped counts ratings discarded past the retry budget
	// without touching playback.
	RatingsDropped int64 `json:"ratings_dropped,omitempty"`
}

// Faults returns the total number of faults observed across kinds.
func (r *Resilience) Faults() int64 {
	var n int64
	for _, v := range r.FaultsByKind {
		n += v
	}
	return n
}

// Degradations returns how many times the ladder actually degraded service
// (rung fallbacks, stale weights kept, ratings dropped). Zero means every
// fault was absorbed by retries alone.
func (r *Resilience) Degradations() int64 {
	return r.SegmentFallbacks + r.StaleWeightsKept + r.RatingsDropped
}

// Resilience snapshots the client's fault-handling ledger, accumulated
// across Join, Stream and Leave.
func (c *Client) Resilience() Resilience {
	r := c.res
	r.FaultsByKind = maps.Clone(r.FaultsByKind)
	return r
}

// Session is the outcome of one streamed playback.
type Session struct {
	// ID is the origin-assigned session identifier.
	ID string
	// Rendering describes what was delivered, ready for QoE models.
	Rendering *qoe.Rendering
	// Weights are the sensitivity weights in force at session end — the
	// manifest-carried vector, superseded by any mid-stream refresh (nil
	// if the video is unprofiled).
	Weights []float64
	// WeightEpoch is the profile epoch the final decision ran under.
	WeightEpoch uint64
	// ChunkEpochs records, per chunk, the profile epoch in force for that
	// chunk's decision; a mid-stream refresh shows up as a step.
	ChunkEpochs []uint64
	// WeightRefreshes counts mid-stream GET /weights re-fetches triggered
	// by the epoch header advancing.
	WeightRefreshes int
	// RatingsPosted / RatingsAccepted / RatingsQuarantined are the
	// closed-loop feedback ledger: every rating the session's Rater
	// produced and posted, split by the origin's verdict (a quarantined
	// rating carried a weight epoch the origin had already superseded).
	// Posted always equals Accepted + Quarantined.
	RatingsPosted      int
	RatingsAccepted    int
	RatingsQuarantined int
	// RebufferVirtualSec is stalled playback in virtual seconds.
	RebufferVirtualSec float64
	// DownloadVirtualSec is time spent downloading segments, in virtual
	// seconds; BytesDownloaded*8/DownloadVirtualSec is the session's mean
	// observed throughput.
	DownloadVirtualSec float64
	// BytesDownloaded counts segment payload traffic, partial deliveries
	// from truncated attempts included (the origin counted those served).
	BytesDownloaded int64
	// ThroughputBps holds the per-chunk measured throughput samples exactly
	// as they entered the ABR's history, most recent last. Only successful
	// attempts contribute; faulted and truncated attempts never do.
	ThroughputBps []float64
	// Resilience is the fault-handling ledger as of stream end (Leave's
	// activity lands on Client.Resilience only).
	Resilience Resilience
}

// SessionID returns the joined session's ID ("" before Join).
func (c *Client) SessionID() string { return c.sid }

// Join creates a session on the origin for the named catalog video. It is
// called implicitly by Stream when the client has no session yet.
// Transient failures (5xx, transport errors) are retried on the backoff
// schedule; there is no degradation rung below "no session", so an
// exhausted budget is an error.
func (c *Client) Join(ctx context.Context, videoName string) error {
	c.videoName = videoName
	return c.run(ctx, nil, stepJoin)
}

// Leave deletes the client's session on the origin, freeing it before the
// idle-expiry janitor would. The origin refuses (409) while a segment
// stream is still draining — after an aborted download its handler may not
// have observed the disconnect yet — so conflicts are retried on the
// backoff schedule up to leaveDrainRetries, a hard cap that keeps a wedged
// origin from hanging teardown forever. Transport errors and 5xx replies
// get the standard retry budget.
func (c *Client) Leave(ctx context.Context) error {
	if c.sid == "" {
		return nil
	}
	return c.run(ctx, nil, stepLeave)
}

// Stream plays the whole video for v within the client's session and
// returns the playback outcome. ctx cancels the stream between (and
// during) segment downloads. It is the HTTP driver of player.Playback: the
// session machine supplies the profile snapshot (from the wire), the chunk
// (retries, degradation) and the trace; run supplies the wire and the
// passage of time (the client's clock).
func (c *Client) Stream(ctx context.Context, v *video.Video) (*Session, error) {
	if c.Algorithm == nil {
		return nil, fmt.Errorf("dash: client needs an algorithm")
	}
	from := stepManifest
	if c.sid == "" {
		c.videoName, from = v.Name, stepJoin
	}
	if err := c.run(ctx, v, from); err != nil {
		return nil, err
	}
	return c.s.sess, nil
}

// run is the session machine's I/O driver: it starts a session of v at
// step from and does each op the session asks for on the client's Caller
// or HTTP client and its clock until it ends. Requests and pauses derive
// from ctx, whose error, once set, stops the session.
func (c *Client) run(ctx context.Context, v *video.Video, from step) error {
	if ctx == nil {
		ctx = context.Background()
	}
	clock := cmp.Or(c.Clock, vclock.Clock(defaultClock))
	c.s = session{c: c, v: v, step: from}
	s := &c.s
	if c.pooled == nil {
		c.pooled = clientBufs.Get().(*buffers)
		c.body, c.answer.Body = c.pooled.body, c.pooled.reply
	}
	for {
		o, ok := s.next(clock.Now())
		if !ok {
			if s.err != nil || c.sid == "" {
				c.release()
			}
			return s.err
		}
		var r reply
		if o.call.Route == 0 {
			clock.Sleep(ctx, o.d)
		} else {
			start := clock.Now()
			r = c.do(ctx, &s.req.call) // o is s.req, which lives in c
			r.sec = (clock.Now() - start).Seconds()
		}
		r.stop = ctx.Err()
		s.complete(clock.Now(), &r)
	}
}

// buffers is one client's request-body and reply buffers, kept between
// sessions in clientBufs: a fresh client would otherwise grow each of them
// once for every session it runs.
type buffers struct{ body, reply []byte }

var clientBufs = sync.Pool{New: func() any { return new(buffers) }}

// release gives the client's buffers back to clientBufs, grown as they
// are; the next request takes a set again.
func (c *Client) release() {
	p := c.pooled
	p.body, p.reply = c.body[:0], c.answer.Body[:0]
	c.pooled, c.body, c.answer.Body = nil, nil, nil
	clientBufs.Put(p)
}

// jsonContentType is the Content-Type value of every POST, shared by all of
// them; see do for why sharing a header value is safe.
var jsonContentType = []string{"application/json"}

// do issues call and reads its reply into c.answer: a 200's body in full
// (or, for a segment, counted by drain: segment bodies are measured, never
// parsed), any other status's first bytes. A body-read failure returns the
// bytes read so far alongside the error.
//
// With a Caller set, the request is a typed call on this goroutine: no
// URL, request, header map, response or context of its own. Otherwise it
// is an HTTP request under the client's RequestTimeout.
func (c *Client) do(ctx context.Context, call *wire.Call) (r reply) {
	a := &c.answer
	if c.Caller != nil {
		r.err = c.Caller.Call(ctx, call, a)
		r.status, r.epoch, r.n, r.clen, r.body = a.Status, a.Epoch, a.N, a.Len, a.Body
		if r.status != http.StatusOK {
			r.body = r.body[:min(len(r.body), 256)] // a failure's message: its first bytes
		}
		return r
	}
	if timeout := cmp.Or(c.RequestTimeout, DefaultRequestTimeout); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if call.Body != nil {
		body = bytes.NewReader(call.Body)
	}
	c.url = call.AppendTarget(append(c.url[:0], c.BaseURL...))
	req, err := http.NewRequestWithContext(ctx, call.Route.Method(), string(c.url), body)
	if err != nil {
		return reply{status: -1, err: err}
	}
	if call.Body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	// The chaos key's value slice is the client's, shared by all its
	// requests, which is safe because the transport only reads it.
	if key := call.Key; key != "" {
		if len(c.chaosKey) == 0 || c.chaosKey[0] != key {
			c.chaosKey = []string{key}
		}
		req.Header[chaos.KeyHeader] = c.chaosKey
	}
	resp, err := cmp.Or(c.HTTP, http.DefaultClient).Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r.status, r.clen = resp.StatusCode, resp.ContentLength
	// The weight-epoch beacon is 0 when the header is absent or malformed:
	// an origin that does not speak the extension never triggers a refresh.
	r.epoch, _ = strconv.ParseUint(resp.Header.Get(wire.WeightEpochHeader), 10, 64)
	if call.Route == wire.RouteSegment && r.status == http.StatusOK {
		r.n, r.err = c.drain(resp.Body)
		return r
	}
	var rd io.Reader = resp.Body
	if r.status != http.StatusOK {
		rd = io.LimitReader(rd, 256) // a failure's message: its first bytes
	}
	buf := bytes.NewBuffer(a.Body[:0])
	r.n, r.err = buf.ReadFrom(rd)
	a.Body = buf.Bytes()
	r.body = a.Body
	return r
}

// sinkBufs pools the segment sink's read buffers, sized to the origin's
// 256 KiB write quantum: io.Discard's 8 KiB buffers cost ~128 read(2) per
// 1 MB segment, and those reads were 39 % of a virtual-clock fleet's CPU.
var sinkBufs = sync.Pool{New: func() any { return new([256 << 10]byte) }}

// drain reads r to EOF and returns the number of bytes read, alongside the
// error that cut the stream short, if any. The origin sends the headers,
// sleeps out the segment's shaped duration and only then writes the
// payload, so the wait for the first bytes happens on the client's own
// small buffer and a pooled one is held only while bytes are moving — a
// fleet of sessions mid-sleep pins no pooled memory.
func (c *Client) drain(r io.Reader) (n int64, err error) {
	m, err := r.Read(c.sinkHead[:])
	n = int64(m)
	if err == nil {
		buf := sinkBufs.Get().(*[256 << 10]byte)
		for err == nil {
			m, err = r.Read(buf[:])
			n += int64(m)
		}
		sinkBufs.Put(buf)
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}
