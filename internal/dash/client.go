// Package dash is SENSEI's streaming client (§6 of the paper): it drives
// any player.Algorithm over HTTP against the multi-tenant origin, reads the
// SenseiWeights manifest extension and the live weight plane through the
// protocol in internal/wire, and implements the MSE-style delayed
// source-buffer sink that realizes SENSEI's proactive rebuffering.
package dash

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// leaveDrainRetries bounds the DELETE /session 409 retry loop: after this
// many conflicts on the backoff schedule, teardown errors out instead of
// spinning forever against a wedged origin.
const leaveDrainRetries = 12

// errWire marks an error as a wire-level failure that exhausted the retry
// budget — eligible for the graceful-degradation ladder — as opposed to a
// validation failure at the trust boundary, which must abort the session.
var errWire = errors.New("wire failure")

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
	// MaxBufferSec caps the client buffer in virtual seconds and
	// MaxPreStallSec a single proactive stall; they are player.Config's
	// fields of the same names, and zero selects its defaults.
	MaxBufferSec   float64
	MaxPreStallSec float64
	// RequestTimeout bounds each HTTP request (default
	// DefaultRequestTimeout; negative disables the timeout).
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
	// videoURL (BaseURL + wire.VideoPath) and sidQuery ("?sid=<sid>") are
	// the session's URL parts, built at Join; segURL holds videoURL
	// followed by the last segment URL's tail, so a segment URL costs one
	// string.
	videoURL string
	sidQuery string
	segURL   []byte
	// chaosKey is ChaosKey as a header value, shared by every request.
	chaosKey []string
	res      Resilience
	// streamedBytes / streamedChunks remember the last Stream's ledger so
	// Leave's session_leave event can carry the session totals.
	streamedBytes  int64
	streamedChunks int64
	// sinkHead receives the first bytes of each segment body; see drain.
	sinkHead [512]byte
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

func (r *Resilience) fault(kind chaos.Kind) {
	if r.FaultsByKind == nil {
		r.FaultsByKind = make(map[string]int64)
	}
	r.FaultsByKind[string(kind)]++
}

func (r Resilience) clone() Resilience {
	out := r
	if r.FaultsByKind != nil {
		out.FaultsByKind = make(map[string]int64, len(r.FaultsByKind))
		for k, v := range r.FaultsByKind {
			out.FaultsByKind[k] = v
		}
	}
	return out
}

// Resilience snapshots the client's fault-handling ledger, accumulated
// across Join, Stream and Leave.
func (c *Client) Resilience() Resilience { return c.res.clone() }

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
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := json.Marshal(wire.JoinRequest{Video: videoName, Trace: c.Trace, TimeScale: c.TimeScale})
	if err != nil {
		return fmt.Errorf("dash: encoding join request: %w", err)
	}
	var jr wire.JoinResponse
	err = c.retried(ctx, chaos.KindSession, func(int) (transient bool, err error) {
		_, transient, err = c.postJSON(ctx, c.BaseURL+"/session", "joining session", body, &jr)
		if err == nil && (jr.SessionID == "" || jr.TimeScale <= 0) {
			err = fmt.Errorf("dash: origin returned invalid session %+v", jr)
		}
		return transient, err
	})
	if err != nil {
		return err
	}
	c.sid, c.videoName, c.sessionScale = jr.SessionID, jr.Video, jr.TimeScale
	c.videoURL = c.BaseURL + wire.VideoPath(c.videoName)
	c.sidQuery = "?sid=" + url.QueryEscape(c.sid)
	c.segURL = append(c.segURL[:0], c.videoURL...)
	c.emit(qlog.Event{Kind: qlog.KindSessionJoin, Detail: c.videoName})
	return nil
}

// jsonContentType is the Content-Type value of every POST, shared by all of
// them; see markChaosKey for why sharing a header value is safe.
var jsonContentType = []string{"application/json"}

// postJSON issues one POST of a JSON body to target (a URL) and decodes the
// 200 reply into out, returning the weight-epoch beacon the reply carried.
// transient reports whether a failure is worth retrying (5xx or
// transport-level).
func (c *Client) postJSON(ctx context.Context, target, what string, body []byte, out any) (epoch uint64, transient bool, err error) {
	reqCtx, cancel := c.requestContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, false, fmt.Errorf("dash: %s: %w", what, err)
	}
	req.Header["Content-Type"] = jsonContentType
	c.markChaosKey(req)
	resp, err := c.httpc().Do(req)
	if err != nil {
		return 0, true, fmt.Errorf("dash: %s: %w", what, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, resp.StatusCode >= 500, fmt.Errorf("dash: %s: %s: %s", what, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return 0, false, fmt.Errorf("dash: %s: decoding reply: %w", what, err)
	}
	return epochBeacon(resp), false, nil
}

// epochBeacon reads the weight epoch a response advertised: 0 when the
// header is absent or malformed — an origin that does not speak the
// extension simply never triggers a refresh.
func epochBeacon(resp *http.Response) uint64 {
	epoch, _ := strconv.ParseUint(resp.Header.Get(wire.WeightEpochHeader), 10, 64)
	return epoch
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
	if ctx == nil {
		ctx = context.Background()
	}
	conflicts, faults := 0, 0
	for attempt := 0; ; attempt++ {
		status, msg, err := c.leaveOnce(ctx)
		switch {
		case err != nil && ctx.Err() != nil:
			return err
		case err != nil, status >= 500:
			c.fault(chaos.KindSession)
			faults++
			if faults > c.Retry.Budget() {
				if err == nil {
					err = fmt.Errorf("status %d: %s", status, msg)
				}
				return fmt.Errorf("dash: leaving session: retry budget exhausted after %d attempts: %w", faults, err)
			}
		case status == http.StatusConflict:
			conflicts++
			if conflicts > leaveDrainRetries {
				return fmt.Errorf("dash: leaving session: still draining after %d attempts: %s", conflicts, msg)
			}
		case status != http.StatusNoContent && status != http.StatusNotFound:
			return fmt.Errorf("dash: leaving session: status %d: %s", status, msg)
		default:
			c.emit(qlog.Event{Kind: qlog.KindSessionLeave, Bytes: c.streamedBytes, Extra: c.streamedChunks})
			c.sid = ""
			return nil
		}
		c.retry()
		if !c.backoff(ctx, attempt) {
			return fmt.Errorf("dash: leaving session: %w", ctx.Err())
		}
	}
}

// leaveOnce issues one DELETE /session and returns the status code plus
// the response message.
func (c *Client) leaveOnce(ctx context.Context) (int, string, error) {
	reqCtx, cancel := c.requestContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodDelete, c.BaseURL+"/session/"+url.PathEscape(c.sid), nil)
	if err != nil {
		return 0, "", fmt.Errorf("dash: leave request: %w", err)
	}
	c.markChaosKey(req)
	resp, err := c.httpc().Do(req)
	if err != nil {
		return 0, "", fmt.Errorf("dash: leaving session: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return resp.StatusCode, string(bytes.TrimSpace(msg)), nil
}

// Stream plays the whole video for v within the client's session and
// returns the playback outcome. ctx cancels the stream between (and
// during) segment downloads. It is the HTTP driver of player.Playback: it
// supplies the profile snapshot (from the wire), the passage of time (the
// client's clock) and the chunk (retries, degradation), and emits the trace.
func (c *Client) Stream(ctx context.Context, v *video.Video) (*Session, error) {
	if c.Algorithm == nil {
		return nil, fmt.Errorf("dash: client needs an algorithm")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if c.sid == "" {
		if err := c.Join(ctx, v.Name); err != nil {
			return nil, err
		}
	}
	// The origin pins segments to the session's video; fail with a clear
	// client-side error instead of its 409.
	if c.videoName != v.Name {
		return nil, fmt.Errorf("dash: session joined for %q, cannot stream %q", c.videoName, v.Name)
	}
	scale := c.TimeScale
	if scale <= 0 {
		scale = c.sessionScale
	}
	if scale <= 0 {
		scale = 1
	}
	pb, err := player.NewPlayback(v, player.Config{MaxBufferSec: c.MaxBufferSec, MaxPreStallSec: c.MaxPreStallSec})
	if err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	wv, err := c.bootstrap(ctx, v)
	if err != nil {
		return nil, err
	}
	sess := &Session{ID: c.sid, Rendering: pb.Rendering()}
	traced := c.Events != nil || c.Metrics != nil

	for i := 0; i < v.NumChunks(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dash: stream canceled at chunk %d: %w", i, err)
		}
		if err := c.snapshot(ctx, sess, i, wv); err != nil {
			return nil, err
		}
		buffered := pb.BufferSec()
		var decideStart time.Time
		if traced {
			decideStart = time.Now()
		}
		d, wait, err := pb.Decide(c.Algorithm, wv.prof, 0)
		if err != nil {
			return nil, fmt.Errorf("dash: %w", err)
		}
		if traced {
			c.decided(i, d, wv.prof.Epoch, buffered, time.Since(decideStart))
		}
		if d.PreStallSec > 0 {
			c.stall(d.PreStallSec)
		}
		// The full-buffer wait is a context-aware pause, so a canceled
		// stream returns promptly instead of sleeping the wait out (at
		// timescale 1 it is seconds of wall clock).
		if wait > 0 && !c.clk().Sleep(ctx, time.Duration(wait*scale*float64(time.Second))) {
			return nil, fmt.Errorf("dash: stream canceled during buffer wait at chunk %d: %w", i, ctx.Err())
		}

		f, rung, err := c.acquire(ctx, v, i, d.Rung)
		if err != nil {
			return nil, fmt.Errorf("dash: segment %d: %w", i, err)
		}
		wv.observed = max(wv.observed, f.epoch)
		// The throughput sample sees only the successful attempt (floored:
		// see MinDownloadVirtualSec); playback drains for the whole
		// acquisition — retries, backoff pauses and truncated attempts
		// included: a fault-lengthened download is a real stall.
		downloadSec := max(f.sec/scale, MinDownloadVirtualSec)
		acquireSec := max(f.totalSec/scale, downloadSec)
		bits := float64(f.bytes * 8)
		stall := pb.Deliver(rung, bits, downloadSec, acquireSec)
		sess.BytesDownloaded += f.bytes + f.partialBytes
		sess.DownloadVirtualSec += downloadSec + f.partialSec/scale
		sess.ThroughputBps = append(sess.ThroughputBps, bits/downloadSec)
		c.delivered(i, rung, f, downloadSec, stall, pb.BufferSec())

		if err := c.rate(ctx, sess, i, wv); err != nil {
			return nil, err
		}
	}
	res, err := pb.Finish(0) // no trace clock here: Result.WallClockSec goes unread
	if err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	sess.ChunkEpochs = res.ChunkEpochs
	sess.RebufferVirtualSec = res.RebufferSec
	sess.Weights = wv.prof.Weights
	sess.WeightEpoch = wv.prof.Epoch
	sess.Resilience = c.res.clone()
	c.streamedBytes, c.streamedChunks = sess.BytesDownloaded, int64(v.NumChunks())
	return sess, nil
}

// decided traces chunk i's decision as the player will carry it out.
// Decision latency is real compute, so it is measured on the wall clock
// even when the session's timing plane is virtual.
func (c *Client) decided(i int, d player.Decision, epoch uint64, bufferedSec float64, lat time.Duration) {
	if c.Metrics != nil {
		c.Metrics.DecisionLatency.Observe(int64(lat))
	}
	c.emit(qlog.Event{
		Kind: qlog.KindDecision, Chunk: int32(i), Rung: int32(d.Rung),
		Epoch: epoch, Wire: lat,
		Extra: int64(bufferedSec * float64(time.Second)),
		Tput:  d.PreStallSec,
	})
}

// delivered traces chunk i landing at rung.
func (c *Client) delivered(i, rung int, f *fetched, downloadSec, stallSec, bufferedSec float64) {
	if f.partialBytes > 0 {
		// Ledgered bytes that never became a throughput sample. Summing
		// chunk_done + chunk_progress bytes reproduces BytesDownloaded
		// exactly.
		c.emit(qlog.Event{Kind: qlog.KindChunkProgress, Chunk: int32(i),
			Rung: int32(rung), Bytes: f.partialBytes})
	}
	if stallSec > 0 {
		c.stall(stallSec)
	}
	if c.Metrics != nil {
		c.Metrics.DownloadLatency.Observe(int64(f.sec * float64(time.Second)))
	}
	c.emit(qlog.Event{
		Kind: qlog.KindChunkDone, Chunk: int32(i), Rung: int32(rung),
		Bytes: f.bytes,
		Wire:  time.Duration(f.sec * float64(time.Second)),
		Virt:  time.Duration(downloadSec * float64(time.Second)),
		Tput:  float64(f.bytes*8) / downloadSec,
	})
	c.emit(qlog.Event{Kind: qlog.KindBufferSample, Chunk: int32(i),
		Extra: int64(bufferedSec * float64(time.Second))})
}

// weightView is one stream's view of the sensitivity plane: the snapshot
// its decisions run under, and how far the wire has advertised past it.
type weightView struct {
	prof *sensitivity.Profile
	// observed tracks the newest epoch any response header has advertised;
	// running ahead of prof.Epoch means the snapshot is stale and the next
	// decision must not run until the new vector is fetched. fetchedFor
	// remembers the newest epoch a /weights fetch was already attempted
	// for, so an origin whose weights endpoint lags its own headers costs
	// one fetch per advertised bump, not one per remaining chunk.
	observed, fetchedFor uint64
}

// bootstrap fetches the manifest and returns the session's starting view
// of the weight plane.
func (c *Client) bootstrap(ctx context.Context, v *video.Video) (*weightView, error) {
	mf, err := c.fetch(ctx, c.videoURL+"manifest.mpd"+c.sidQuery, chaos.KindManifest, -1, false)
	if err != nil {
		return nil, fmt.Errorf("dash: fetching manifest: %w", err)
	}
	prof, err := parseManifest(mf.body, v)
	if err != nil {
		return nil, err
	}
	return &weightView{prof: prof, observed: prof.Epoch, fetchedFor: prof.Epoch}, nil
}

// parseManifest decodes a manifest and validates it against the local
// video model, returning the profile snapshot the session starts on.
func parseManifest(body []byte, v *video.Video) (*sensitivity.Profile, error) {
	mpd, err := wire.ParseMPD(body)
	if err != nil {
		return nil, err
	}
	// A manifest whose ladder disagrees with the local video model would
	// silently stream wrong segment sizes; fail loudly instead.
	if err := validateLadder(v, mpd.Ladder()); err != nil {
		return nil, err
	}
	weights, err := mpd.Weights()
	if err != nil {
		return nil, err
	}
	prof := &sensitivity.Profile{VideoName: v.Name, Epoch: mpd.WeightEpoch(), Weights: weights}
	if weights != nil && prof.Epoch == 0 {
		// A weighted manifest from an origin predating the epoch extension
		// is, by definition, the first epoch.
		prof.Epoch = 1
	}
	if err := checkProfile(prof, v); err != nil {
		return nil, err
	}
	return prof, nil
}

// checkProfile is the trust boundary every wire-carried profile crosses —
// manifest or GET /weights — before it is allowed anywhere near an ABR
// objective: one crowd.ValidWeight weight per local chunk at a positive
// epoch, or no weights at epoch 0. A weightless profile at a positive epoch
// would silently downgrade a profiled session to unweighted planning under
// a fresh-looking stamp (and, from a manifest, suppress adoption of every
// real profile published up to it).
func checkProfile(p *sensitivity.Profile, v *video.Video) error {
	if p.Weights != nil && len(p.Weights) != v.NumChunks() {
		return fmt.Errorf("dash: origin sent %d weights for %d chunks", len(p.Weights), v.NumChunks())
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("dash: origin sent an unusable profile: %w", err)
	}
	return nil
}

// snapshot brings wv.prof up to date for chunk i's decision: one immutable
// snapshot per decision. An injected source is polled like the simulator
// polls it; on the wire plane a stale snapshot (a response advertised a
// newer epoch) is re-fetched before the ABR runs, so a refresh reaches the
// decision loop within one segment download.
func (c *Client) snapshot(ctx context.Context, sess *Session, i int, wv *weightView) error {
	if c.Sensitivity != nil {
		wv.prof, _ = c.Sensitivity.Snapshot()
		return nil
	}
	if wv.observed <= wv.prof.Epoch || wv.observed <= wv.fetchedFor {
		return nil
	}
	wv.fetchedFor = wv.observed
	p, err := c.fetchWeights(ctx, sess.Rendering.Video)
	switch {
	case err == nil:
		if p.Epoch > wv.prof.Epoch {
			wv.prof = p
		}
		sess.WeightRefreshes++
		c.emit(qlog.Event{Kind: qlog.KindEpochAdopted, Chunk: int32(i), Epoch: wv.prof.Epoch})
	case ctx.Err() == nil && errors.Is(err, errWire):
		// Degradation rung: the weight service is unreachable past the
		// retry budget. Continue on the last adopted epoch snapshot —
		// counted, never torn — rather than killing playback over a
		// sensitivity update.
		c.res.StaleWeightsKept++
		c.degrade(degradeStaleWeights)
	default:
		// A canceled stream, or a validation failure at the trust
		// boundary: a reachable origin sending poisoned weights is not a
		// degraded wire.
		return fmt.Errorf("dash: refreshing weights at chunk %d: %w", i, err)
	}
	return nil
}

// acquire downloads chunk i at rung and returns the fetch with the rung
// actually delivered. Degradation ladder: before declaring the stream
// dead, a segment whose retry budget ran out is re-decided at the lowest
// rung with a fresh budget — the cheapest segment has the best odds of
// surviving a degraded wire, and a low-quality chunk beats a dead session.
func (c *Client) acquire(ctx context.Context, v *video.Video, i, rung int) (*fetched, int, error) {
	f, err := c.fetchSegment(ctx, v, i, rung)
	if err != nil && errors.Is(err, errWire) && rung != 0 {
		c.res.SegmentFallbacks++
		c.degrade(degradeSegmentFallback)
		rung = 0
		f, err = c.fetchSegment(ctx, v, i, rung)
	}
	return f, rung, err
}

func (c *Client) fetchSegment(ctx context.Context, v *video.Video, i, rung int) (*fetched, error) {
	size := int64(v.ChunkSizeBits(i, rung) / 8)
	c.emit(qlog.Event{Kind: qlog.KindChunkStart, Chunk: int32(i), Rung: int32(rung), Bytes: size})
	return c.fetch(ctx, c.segmentURL(i, rung), chaos.KindSegment, size, true)
}

// segmentURL is chunk i's URL at rung in the joined session.
func (c *Client) segmentURL(i, rung int) string {
	b := wire.AppendSegment(c.segURL[:len(c.videoURL)], i, rung)
	c.segURL = append(b, c.sidQuery...)
	return string(c.segURL)
}

// rate closes the loop for chunk i: the Rater scores the chunk that just
// rendered and the rating is posted stamped with the epoch its decision
// ran under. The reply's epoch beacon feeds the same staleness tracking as
// segment responses, so an autonomous refresh triggered by the fleet's own
// ratings still reaches this session within one chunk.
func (c *Client) rate(ctx context.Context, sess *Session, i int, wv *weightView) error {
	if c.Rater == nil {
		return nil
	}
	score, ok := c.Rater.RateChunk(sess.Rendering, i)
	if !ok {
		return nil
	}
	epoch := wv.prof.Epoch
	accepted, respEpoch, err := c.postRating(ctx, i, epoch, score)
	switch {
	case err == nil:
		sess.RatingsPosted++
		c.emit(qlog.Event{Kind: qlog.KindRatingPosted, Chunk: int32(i), Epoch: epoch, Extra: int64(score)})
		if accepted {
			sess.RatingsAccepted++
			c.emit(qlog.Event{Kind: qlog.KindRatingAccepted, Chunk: int32(i), Epoch: epoch})
		} else {
			sess.RatingsQuarantined++
			c.emit(qlog.Event{Kind: qlog.KindRatingQuarantined, Chunk: int32(i), Epoch: epoch})
		}
		wv.observed = max(wv.observed, respEpoch)
	case ctx.Err() == nil && errors.Is(err, errWire):
		// Degradation rung: feedback is best-effort. Drop the rating
		// without touching playback.
		c.res.RatingsDropped++
		c.degrade(degradeRatingDropped)
	default:
		return fmt.Errorf("dash: rating chunk %d: %w", i, err)
	}
	return nil
}

// fetchWeights pulls the session video's current profile snapshot from the
// origin. Wire failures carry errWire (the caller may degrade to its last
// snapshot); validation failures never do.
func (c *Client) fetchWeights(ctx context.Context, v *video.Video) (*sensitivity.Profile, error) {
	f, err := c.fetch(ctx, c.BaseURL+"/weights"+c.sidQuery, chaos.KindWeights, -1, false)
	if err != nil {
		return nil, err
	}
	return parseWeights(f.body, v)
}

// parseWeights decodes and validates a GET /weights body.
func parseWeights(body []byte, v *video.Video) (*sensitivity.Profile, error) {
	var wr wire.WeightsResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, fmt.Errorf("dash: decoding weights: %w", err)
	}
	if wr.Video != v.Name {
		return nil, fmt.Errorf("dash: weights are for %q, session streams %q", wr.Video, v.Name)
	}
	prof := &sensitivity.Profile{VideoName: wr.Video, Epoch: wr.Epoch, Weights: wr.Weights}
	if err := checkProfile(prof, v); err != nil {
		return nil, err
	}
	return prof, nil
}

// postRating submits one chunk rating and returns the origin's verdict
// (accepted vs quarantined) plus the current-epoch beacon the response
// carries. Transient failures retry on the backoff schedule; budget
// exhaustion returns an errWire-marked error so the caller can drop the
// rating instead of tearing playback down.
func (c *Client) postRating(ctx context.Context, chunk int, epoch uint64, rating int) (accepted bool, respEpoch uint64, err error) {
	body, err := json.Marshal(wire.RatingRequest{SessionID: c.sid, Chunk: chunk, Epoch: epoch, Rating: rating})
	if err != nil {
		return false, 0, fmt.Errorf("dash: encoding rating: %w", err)
	}
	// The sid rides in the query (the body already carries it) so a
	// sid-routing front like the multi-origin router can steer the rating
	// to the session's shard without reading the body.
	target := c.BaseURL + "/rating" + c.sidQuery
	err = c.retried(ctx, chaos.KindRating, func(int) (transient bool, err error) {
		var rr wire.RatingResponse
		respEpoch, transient, err = c.postJSON(ctx, target, "posting rating", body, &rr)
		if err == nil && rr.Status != wire.StatusAccepted && rr.Status != wire.StatusQuarantined {
			err = fmt.Errorf("dash: origin returned rating status %q", rr.Status)
		}
		accepted = rr.Status == wire.StatusAccepted
		return transient, err
	})
	if err != nil {
		return false, 0, err
	}
	return accepted, respEpoch, nil
}

// validateLadder checks the manifest ladder against the local video model.
func validateLadder(v *video.Video, ladder []int) error {
	if len(ladder) != len(v.Ladder) {
		return fmt.Errorf("dash: manifest has %d ladder rungs, local video %q has %d", len(ladder), v.Name, len(v.Ladder))
	}
	for i, kbps := range ladder {
		if kbps != v.Ladder[i] {
			return fmt.Errorf("dash: manifest rung %d is %d kbps, local video %q has %d", i, kbps, v.Name, v.Ladder[i])
		}
	}
	return nil
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// clk resolves the client's timing plane.
func (c *Client) clk() vclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return defaultClock
}

// Degradation-ladder step tokens carried in KindDegradation events. They
// are package constants so emitting one never builds a string.
const (
	degradeSegmentFallback = "segment-fallback"
	degradeStaleWeights    = "stale-weights"
	degradeRatingDropped   = "rating-dropped"
)

// emit stamps ev on the client's clock and appends it to the trace ring.
// A nil ring makes this a no-op, so call sites stay unconditional; a full
// ring drops (and the registry counts the drop) rather than block.
func (c *Client) emit(ev qlog.Event) {
	if c.Events == nil {
		return
	}
	ev.T = c.clk().Now()
	qlog.Emit(c.Events, c.Metrics, ev)
}

// fault records one observed wire fault in the Resilience ledger and
// mirrors it as a fault_survived event, so the per-kind event tally
// reconciles exactly against Resilience.FaultsByKind.
func (c *Client) fault(kind chaos.Kind) {
	c.res.fault(kind)
	c.emit(qlog.Event{Kind: qlog.KindFaultSurvived, Detail: string(kind)})
}

// retry records one wire attempt beyond the first: ledger, registry
// counter, and a retry event whose Extra is the session's cumulative retry
// count — event count ≡ Resilience.Retries by construction.
func (c *Client) retry() {
	c.res.Retries++
	if c.Metrics != nil {
		c.Metrics.Retries.Inc()
	}
	c.emit(qlog.Event{Kind: qlog.KindRetry, Extra: c.res.Retries})
}

// degrade records one graceful-degradation step (the ledger counter is
// bumped at the call site, where the specific field lives).
func (c *Client) degrade(step string) {
	if c.Metrics != nil {
		c.Metrics.Degradations.Inc()
	}
	c.emit(qlog.Event{Kind: qlog.KindDegradation, Detail: step})
}

// stall records one realized stall of sec session-virtual seconds as a
// begin/end event pair plus a histogram observation.
func (c *Client) stall(sec float64) {
	ns := int64(sec * float64(time.Second))
	if c.Metrics != nil {
		c.Metrics.StallDuration.Observe(ns)
	}
	c.emit(qlog.Event{Kind: qlog.KindStallBegin, Extra: ns})
	c.emit(qlog.Event{Kind: qlog.KindStallEnd, Virt: time.Duration(ns)})
}

// retried runs once under the retry budget of an endpoint of the given
// kind. A transient failure is ledgered as a fault and retried after the
// schedule's next backoff pause; a permanent one, or any failure once ctx
// is dead, is returned as is. Budget exhaustion returns an errWire-marked
// error — whether there is a degradation rung below it is the caller's
// business. once's errors name the operation; retried adds only what
// became of it.
func (c *Client) retried(ctx context.Context, kind chaos.Kind, once func(attempt int) (transient bool, err error)) error {
	for attempt := 0; ; attempt++ {
		transient, err := once(attempt)
		if err == nil || !transient || ctx.Err() != nil {
			return err
		}
		c.fault(kind)
		if attempt >= c.Retry.Budget() {
			return fmt.Errorf("dash: retry budget exhausted after %d attempts: %w: %w", attempt+1, errWire, err)
		}
		c.retry()
		if !c.backoff(ctx, attempt) {
			return fmt.Errorf("dash: %w while backing off from: %w", ctx.Err(), err)
		}
	}
}

// backoff sleeps out the retry schedule's attempt-th pause on the client's
// clock; false means ctx fired first.
func (c *Client) backoff(ctx context.Context, attempt int) bool {
	d := c.Retry.Delay(attempt)
	c.emit(qlog.Event{Kind: qlog.KindBackoff, Virt: d})
	return c.clk().Sleep(ctx, d)
}

// markChaosKey stamps the request with the client's chaos stream key. The
// value slice is the client's, shared by all its requests, which is safe
// because no handler ever sees it: the in-process transport hands the
// handler a copy of the request's headers, and over TCP they are
// serialised.
func (c *Client) markChaosKey(req *http.Request) {
	if c.ChaosKey == "" {
		return
	}
	if len(c.chaosKey) == 0 || c.chaosKey[0] != c.ChaosKey {
		c.chaosKey = []string{c.ChaosKey}
	}
	req.Header[chaos.KeyHeader] = c.chaosKey
}

// requestContext derives the per-request context with the client's
// timeout applied.
func (c *Client) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	timeout := c.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	if timeout < 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// fetched is one retried GET's outcome: the successful body and its timing,
// plus the partial payloads truncated attempts delivered along the way.
type fetched struct {
	// body holds the payload for control-plane fetches; segment fetches
	// discard the stream as it arrives and report only bytes, so a
	// 10k-session fleet doesn't buffer terabytes of video it never parses.
	body  []byte
	bytes int64
	epoch uint64
	// sec is the wall-clock duration of the successful attempt only — the
	// throughput history must measure the link, not the retry schedule.
	sec float64
	// totalSec spans the whole acquisition: every attempt plus every
	// backoff pause. The playback buffer drains for all of it.
	totalSec float64
	// partialBytes / partialSec account payload delivered by truncated
	// attempts before the wire broke: the origin counted those bytes
	// served, so the byte ledger must include them, but they never become
	// throughput samples.
	partialBytes int64
	partialSec   float64
}

// fetch GETs target (a URL under BaseURL) under the retry budget,
// classifying every failure: transport errors and 5xx replies are transient
// and retried with backoff; 4xx are permanent; a 200 whose body length
// disagrees with Content-Length (or with the caller's expected size, when
// expected >= 0) is a truncation fault — retried, with the partial payload
// ledgered. Budget exhaustion returns an errWire-marked error; degradation
// is the caller's choice. With discard set the body is streamed to a
// counting sink instead of buffered, and only fetched.bytes is populated.
func (c *Client) fetch(ctx context.Context, target string, kind chaos.Kind, expected int64, discard bool) (*fetched, error) {
	f := &fetched{}
	path := strings.TrimPrefix(target, c.BaseURL) // what errors name
	clock := c.clk()
	err := c.retried(ctx, kind, func(attempt int) (bool, error) {
		if attempt > 0 {
			// The pause just slept is part of the acquisition. Summed as
			// scheduled, not read off the clock: the result feeds stall
			// seconds and must not pick up wall-clock jitter.
			f.totalSec += c.Retry.Delay(attempt - 1).Seconds()
		}
		start := clock.Now()
		body, n, epoch, clen, transient, err := c.getOnce(ctx, target, discard)
		sec := (clock.Now() - start).Seconds()
		f.totalSec += sec
		if err == nil {
			switch {
			case clen >= 0 && n != clen:
				err = fmt.Errorf("dash: GET %s: body is %d bytes, Content-Length says %d", path, n, clen)
			case expected >= 0 && n != expected:
				err = fmt.Errorf("dash: GET %s: body is %d bytes, expected %d", path, n, expected)
			default:
				f.body, f.bytes, f.epoch, f.sec = body, n, epoch, sec
				return false, nil
			}
			// A complete-looking reply of the wrong length is a truncation.
			transient = true
		} else if !transient || ctx.Err() != nil || n == 0 {
			return transient, err
		}
		// A truncated reply, or a mid-body hangup that delivered a prefix
		// before failing: ledger the bytes that did arrive (the origin
		// counted them served) and keep them out of the throughput history.
		f.partialBytes += n
		f.partialSec += sec
		c.res.Truncations++
		return transient, err
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// sinkBufs pools the segment sink's read buffers, sized to the origin's
// 256 KiB write quantum: io.Discard's 8 KiB buffers cost ~128 read(2) per
// 1 MB segment, and those reads were 39 % of a virtual-clock fleet's CPU.
var sinkBufs = sync.Pool{New: func() any { return new([256 << 10]byte) }}

// drain reads r to EOF and returns the number of bytes read, alongside the
// error that cut the stream short, if any. A body that can write itself
// out (an in-process origin's) is counted slice by slice and never copied.
// Otherwise: the origin sends the headers, sleeps out the segment's shaped
// duration and only then writes the payload, so the wait for the first
// bytes happens on the client's own small buffer and a pooled one is held
// only while bytes are moving — a fleet of sessions mid-sleep pins no
// pooled memory.
func (c *Client) drain(r io.Reader) (n int64, err error) {
	if wt, ok := r.(io.WriterTo); ok {
		return wt.WriteTo(io.Discard)
	}
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

// getOnce issues one GET of target, which its errors name by its path, and
// returns the body (nil with discard set), the number of payload bytes
// read, the weight epoch the response advertised (see epochBeacon), the
// declared Content-Length (-1 when unknown), and whether a failure is
// transient. A body-read failure returns the bytes read so far alongside
// the error. With discard set the payload is drained through pooled
// buffers — segment bodies are measured, never parsed, and buffering them
// would put the whole catalog's bitrate through the allocator at fleet
// scale.
func (c *Client) getOnce(ctx context.Context, target string, discard bool) (body []byte, n int64, epoch uint64, clen int64, transient bool, err error) {
	path := strings.TrimPrefix(target, c.BaseURL)
	reqCtx, cancel := c.requestContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, target, nil)
	if err != nil {
		return nil, 0, 0, -1, false, err
	}
	c.markChaosKey(req)
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, 0, 0, -1, true, fmt.Errorf("dash: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, 0, 0, -1, resp.StatusCode >= 500, fmt.Errorf("dash: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	epoch = epochBeacon(resp)
	if discard {
		n, err = c.drain(resp.Body)
		if err != nil {
			return nil, n, epoch, resp.ContentLength, true, fmt.Errorf("dash: GET %s: reading body: %w", path, err)
		}
		return nil, n, epoch, resp.ContentLength, false, nil
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return body, int64(len(body)), epoch, resp.ContentLength, true, fmt.Errorf("dash: GET %s: reading body: %w", path, err)
	}
	return body, int64(len(body)), epoch, resp.ContentLength, false, nil
}
