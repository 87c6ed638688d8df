package dash

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strings"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/sensitivity"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// leaveDrainRetries bounds the DELETE /session 409 retry loop: after this
// many conflicts on the backoff schedule, teardown errors out instead of
// spinning forever against a wedged origin.
const leaveDrainRetries = 12

// errWire marks an error as a wire-level failure that exhausted the retry
// budget — eligible for the graceful-degradation ladder — as opposed to a
// validation failure at the trust boundary, which must abort the session.
var errWire = errors.New("wire failure")

// An op is one thing a session needs done: a request, or a pause.
type op struct {
	// method is GET, POST or DELETE, or "" for a pause of d; target is the
	// request URL.
	method, target string
	body           []byte // a POST's JSON
	// discard counts a segment body's bytes instead of buffering them: a
	// 10k-session fleet must not buffer terabytes of video it never parses.
	discard bool
	d       time.Duration
}

// A reply is what became of an op.
type reply struct {
	// status is the HTTP status: 0 when the request failed in transport, -1
	// when it could not be built.
	status int
	epoch  uint64 // the weight epoch the reply advertised, 0 for none
	body   []byte // a 200's control-plane body, valid until the next request
	// n counts the body bytes read; clen is the declared Content-Length, -1
	// when unknown. sec is how long the request took on the driver's clock.
	n, clen int64
	sec     float64
	// err is a transport, status or body-read failure. stop is set once
	// the caller has given up (its context's error): nothing is retried.
	err, stop error
}

// step is where a session stands. A request step issues its request and
// awaits the reply; the others run to the next request or pause.
type step uint8

const (
	stepJoin     step = iota // POST /session
	stepManifest             // check the video, start playback, GET the manifest
	stepWeights              // chunk i: end, or GET /weights for a stale snapshot
	stepDecide               // decide chunk i, and pause out a full buffer
	stepSegment              // GET chunk i at rung
	stepRate                 // POST chunk i's rating
	stepLeave                // DELETE /session
	stepDone
)

// session is the client's step machine: every decision Join, Stream and
// Leave make, with no I/O. next names the op the session needs; its driver
// does it and hands the reply to complete; repeat until next reports the
// session over and err says how. The machine owns retry classification
// and the backoff schedule, the degradation ladder, the playback model,
// the weight plane, the rating schedule and every qlog and metrics
// emission, stamped with the now its driver passes in.
type session struct {
	c    *Client
	v    *video.Video // nil for a Join alone
	step step
	req  op // the request in flight; method "" when none
	now  time.Duration
	// err is why the session ended, nil on success; stop is the caller's
	// reason to give up, as of the last reply.
	err, stop error
	// sleeping: next returns a pause of pause, a backoff when a request is
	// in flight and the full-buffer wait otherwise.
	sleeping bool
	pause    time.Duration

	// The in-flight request's retry state: every attempt, and the faults
	// and 409 conflicts among them.
	kind                       chaos.Kind
	attempt, faults, conflicts int
	expected                   int64 // the segment's size, -1 for other bodies

	pb   *player.Playback
	sess *Session
	// i is the chunk in play, rung its rung and score its rating.
	i, rung, score int
	scale          float64
	// totalSec spans chunk i's acquisition at its rung, every attempt and
	// backoff pause; the playback buffer drains for all of it. partialBytes
	// and partialSec account what truncated attempts delivered, at any rung:
	// the origin counted those bytes served, but they never become
	// throughput samples.
	totalSec, partialSec float64
	partialBytes         int64
	// prof is the snapshot decisions run under. observed tracks the newest
	// epoch any reply advertised; running ahead of prof.Epoch means the next
	// decision must wait for the new vector. fetchedFor remembers the newest
	// epoch a /weights fetch was attempted for, so an origin whose weights
	// endpoint lags its own headers costs one fetch per advertised bump.
	prof                 *sensitivity.Profile
	observed, fetchedFor uint64
}

// next returns the op the session needs done, or false once it has ended.
func (s *session) next(now time.Duration) (op, bool) {
	s.now = now
	for !s.sleeping && s.req.method == "" && s.step != stepDone {
		if err := s.advance(); err != nil {
			s.end(err)
		}
	}
	if s.sleeping {
		return op{d: s.pause}, true
	}
	return s.req, s.step != stepDone
}

// advance runs the current step up to its request, its pause or the next
// step.
func (s *session) advance() error {
	c := s.c
	switch s.step {
	case stepJoin:
		if math.IsNaN(c.TimeScale) || math.IsInf(c.TimeScale, 0) {
			return fmt.Errorf("dash: encoding join request: timescale %v is not a JSON number", c.TimeScale)
		}
		c.body = (&wire.JoinRequest{Video: c.videoName, Trace: c.Trace, TimeScale: c.TimeScale}).AppendJSON(c.body[:0])
		s.issue(chaos.KindSession, "POST", c.BaseURL+"/session", c.body, -1)
	case stepManifest:
		if s.v == nil {
			s.step = stepDone
			return nil
		}
		// The origin pins segments to the session's video; fail with a
		// clear client-side error instead of its 409.
		if c.videoName != s.v.Name {
			return fmt.Errorf("dash: session joined for %q, cannot stream %q", c.videoName, s.v.Name)
		}
		s.scale = cmp.Or(max(c.TimeScale, 0), c.sessionScale, 1)
		var err error
		if s.pb, err = player.NewPlayback(s.v, player.Config{MaxBufferSec: c.MaxBufferSec}); err != nil {
			return fmt.Errorf("dash: %w", err)
		}
		s.sess = &Session{ID: c.sid, Rendering: s.pb.Rendering(), ThroughputBps: make([]float64, 0, s.v.NumChunks())}
		s.issue(chaos.KindManifest, "GET", c.videoURL+"manifest.mpd"+c.sidQuery, nil, -1)
	case stepWeights:
		if s.i == s.v.NumChunks() {
			return s.finish()
		}
		if s.stop != nil {
			return fmt.Errorf("dash: stream canceled at chunk %d: %w", s.i, s.stop)
		}
		// One immutable snapshot per decision: an injected source is polled
		// as the simulator polls it; on the wire plane a stale snapshot is
		// re-fetched first, so a refresh reaches the decision loop within
		// one segment download.
		switch {
		case c.Sensitivity != nil:
			s.prof, _ = c.Sensitivity.Snapshot()
		case s.observed > s.prof.Epoch && s.observed > s.fetchedFor:
			s.fetchedFor = s.observed
			s.issue(chaos.KindWeights, "GET", c.BaseURL+"/weights"+c.sidQuery, nil, -1)
			return nil
		}
		s.step = stepDecide
	case stepDecide:
		s.decide()
	case stepSegment:
		size := int64(s.v.ChunkSizeBits(s.i, s.rung) / 8)
		s.emit(qlog.Event{Kind: qlog.KindChunkStart, Chunk: int32(s.i), Rung: int32(s.rung), Bytes: size})
		s.issue(chaos.KindSegment, "GET", c.segmentURL(s.i, s.rung), nil, size)
	case stepRate:
		// Closing the loop: the Rater scores the chunk that just rendered,
		// and the rating is stamped with the epoch its decision ran under.
		if c.Rater != nil {
			if score, ok := c.Rater.RateChunk(s.sess.Rendering, s.i); ok {
				s.score = score
				c.body = (&wire.RatingRequest{SessionID: c.sid, Chunk: s.i, Epoch: s.prof.Epoch, Rating: score}).AppendJSON(c.body[:0])
				s.issue(chaos.KindRating, "POST", c.ratingURL, c.body, -1)
				return nil
			}
		}
		s.i, s.step = s.i+1, stepWeights
	case stepLeave:
		s.issue(chaos.KindSession, "DELETE", c.BaseURL+"/session/"+url.PathEscape(c.sid), nil, -1)
	}
	return nil
}

// issue puts a request in flight with a fresh retry budget. A body of
// known size (expected >= 0) is a segment's: counted, never buffered.
func (s *session) issue(kind chaos.Kind, method, target string, body []byte, expected int64) {
	s.req = op{method: method, target: target, body: body, discard: expected >= 0}
	s.kind, s.expected = kind, expected
	s.attempt, s.faults, s.conflicts = 0, 0, 0
}

// end stops the session with err, nil meaning success.
func (s *session) end(err error) {
	s.err, s.step, s.req, s.sleeping = err, stepDone, op{}, false
}

// decide runs chunk i's decision on the playback model and sets up its
// download, after a full-buffer pause when the model asks for one.
func (s *session) decide() {
	c := s.c
	buffered := s.pb.BufferSec()
	var start time.Time // zero: untraced
	if c.Events != nil || c.Metrics != nil {
		start = time.Now()
	}
	d, wait, err := s.pb.Decide(c.Algorithm, s.prof, 0)
	if err != nil {
		s.end(fmt.Errorf("dash: %w", err))
		return
	}
	if !start.IsZero() {
		// Decision latency is real compute, so it is measured on the wall
		// clock even when the session's timing plane is virtual.
		lat := time.Since(start)
		if c.Metrics != nil {
			c.Metrics.DecisionLatency.Observe(int64(lat))
		}
		s.emit(qlog.Event{
			Kind: qlog.KindDecision, Chunk: int32(s.i), Rung: int32(d.Rung),
			Epoch: s.prof.Epoch, Wire: lat,
			Extra: int64(buffered * float64(time.Second)),
			Tput:  d.PreStallSec,
		})
	}
	if d.PreStallSec > 0 {
		s.stall(d.PreStallSec)
	}
	s.rung, s.step = d.Rung, stepSegment
	s.totalSec, s.partialSec, s.partialBytes = 0, 0, 0
	if wait > 0 {
		s.sleeping, s.pause = true, time.Duration(wait*s.scale*float64(time.Second))
	}
}

// complete takes the reply to the op next returned.
func (s *session) complete(now time.Duration, r *reply) {
	s.now, s.stop = now, r.stop
	o := &s.req
	if s.sleeping {
		s.sleeping = false
		switch {
		case r.stop == nil:
		case o.method == "":
			s.end(fmt.Errorf("dash: stream canceled during buffer wait at chunk %d: %w", s.i, r.stop))
		default:
			s.end(fmt.Errorf("dash: %s %s: %w while backing off", o.method, s.path(), r.stop))
		}
		return
	}
	s.totalSec += r.sec
	res := &s.c.res
	// A GET or POST succeeds with a 200 whose body is whole: one that
	// disagrees with its Content-Length, or with the segment's known size,
	// is a truncation. A DELETE succeeds with 204, or 404: already gone.
	inBody := s.inBody(r)
	truncated := r.clen >= 0 && r.n != r.clen || s.expected >= 0 && r.n != s.expected
	switch {
	case inBody && r.err == nil && !truncated, o.method == "DELETE" && (r.status == 204 || r.status == 404):
		s.req = op{}
		if err := s.succeeded(r); err != nil {
			s.end(err)
		}
		return
	case r.stop != nil:
		s.failed(s.failure(r))
		return
	case o.method == "DELETE" && r.status == 409:
		// The origin refuses while a segment stream is still draining: not
		// a fault, but capped, so a wedged origin cannot hang teardown.
		if s.conflicts++; s.conflicts > leaveDrainRetries {
			s.end(fmt.Errorf("dash: leaving session: still draining after %d attempts: %w", s.conflicts, s.failure(r)))
			return
		}
	// Transport failures and 5xx replies are worth retrying, and so is a
	// GET's broken body; a POST's reply is not (the origin has acted on
	// it), nor is any other status. What went wrong is spelled out only
	// when it ends the request.
	case r.status == 0 || r.status >= 500 || inBody && o.method == "GET":
		if inBody && s.step == stepSegment && (r.err == nil || r.n > 0) {
			s.partialBytes += r.n
			s.partialSec += r.sec
			res.Truncations++
		}
		// A fault_survived event mirrors each ledgered fault, so the
		// per-kind event tally reconciles exactly against FaultsByKind.
		if res.FaultsByKind == nil {
			res.FaultsByKind = make(map[string]int64)
		}
		res.FaultsByKind[string(s.kind)]++
		s.faults++
		s.emit(qlog.Event{Kind: qlog.KindFaultSurvived, Detail: string(s.kind)})
		if s.faults > s.c.Retry.Budget() {
			s.failed(fmt.Errorf("dash: retry budget exhausted after %d attempts: %w: %w", s.faults, errWire, s.failure(r)))
			return
		}
	default:
		s.failed(s.failure(r))
		return
	}
	// One attempt beyond the first: ledger, registry counter, and a retry
	// event whose Extra is the session's cumulative retry count — event
	// count ≡ Resilience.Retries by construction. Then the pause, summed as
	// scheduled, not read off the clock: it feeds stall seconds and must
	// not pick up wall-clock jitter.
	res.Retries++
	if s.c.Metrics != nil {
		s.c.Metrics.Retries.Inc()
	}
	s.emit(qlog.Event{Kind: qlog.KindRetry, Extra: res.Retries})
	s.pause, s.sleeping = s.c.Retry.Delay(s.attempt), true
	s.attempt++
	s.totalSec += s.pause.Seconds()
	s.emit(qlog.Event{Kind: qlog.KindBackoff, Virt: s.pause})
}

// inBody reports whether r carries the in-flight GET's or POST's payload.
func (s *session) inBody(r *reply) bool { return r.status == 200 && s.req.method != "DELETE" }

// path is the in-flight request's target as errors name it.
func (s *session) path() string { return strings.TrimPrefix(s.req.target, s.c.BaseURL) }

// failure says what went wrong with r, a failed reply to the request in
// flight.
func (s *session) failure(r *reply) error {
	o, path := &s.req, s.path()
	switch {
	case r.status > 0 && !s.inBody(r):
		return fmt.Errorf("dash: %s %s: status %d: %s", o.method, path, r.status, bytes.TrimSpace(r.body))
	case r.err != nil:
		return fmt.Errorf("dash: %s %s: %w", o.method, path, r.err)
	case r.clen >= 0 && r.n != r.clen:
		return fmt.Errorf("dash: %s %s: body is %d bytes, Content-Length says %d", o.method, path, r.n, r.clen)
	}
	return fmt.Errorf("dash: %s %s: body is %d bytes, expected %d", o.method, path, r.n, s.expected)
}

// failed ends the in-flight request with err. An exhausted retry budget
// (errWire) walks the degradation ladder where the step has a rung below
// it; anything else, a validation failure at the trust boundary included,
// ends the session.
func (s *session) failed(err error) {
	res, exhausted := &s.c.res, errors.Is(err, errWire)
	s.req = op{}
	switch {
	case exhausted && s.step == stepWeights:
		// The weight service is unreachable: continue on the last adopted
		// snapshot rather than kill playback over a sensitivity update.
		s.degrade(&res.StaleWeightsKept, "stale-weights")
		s.step = stepDecide
	case exhausted && s.step == stepSegment && s.rung != 0:
		// Re-decide at the lowest rung with a fresh budget: the cheapest
		// segment has the best odds on a degraded wire, and a low-quality
		// chunk beats a dead session. The failed rung's partial bytes stay
		// in the ledger (the origin served them), but playback drains for
		// the fallback rung's acquisition alone.
		s.degrade(&res.SegmentFallbacks, "segment-fallback")
		s.rung, s.totalSec = 0, 0
	case exhausted && s.step == stepRate:
		// Feedback is best-effort: drop the rating, never touch playback.
		s.degrade(&res.RatingsDropped, "rating-dropped")
		s.i, s.step = s.i+1, stepWeights
	default:
		s.end(err)
	}
}

// succeeded takes a good reply to the in-flight request.
func (s *session) succeeded(r *reply) error {
	c, sess := s.c, s.sess
	switch s.step {
	case stepJoin:
		var jr wire.JoinResponse
		if err := jr.Parse(r.body); err != nil {
			return fmt.Errorf("dash: joining session: decoding reply: %w", err)
		}
		if jr.SessionID == "" || jr.TimeScale <= 0 {
			return fmt.Errorf("dash: origin returned invalid session %+v", jr)
		}
		c.sid, c.videoName, c.sessionScale = jr.SessionID, jr.Video, jr.TimeScale
		c.videoURL = c.BaseURL + wire.VideoPath(c.videoName)
		c.sidQuery = "?sid=" + url.QueryEscape(c.sid)
		// The sid rides in the rating query as well as in its body, so a
		// sid-routing front like the multi-origin router can steer a rating
		// to the session's shard without reading the body.
		c.ratingURL = c.BaseURL + "/rating" + c.sidQuery
		c.segURL = append(c.segURL[:0], c.videoURL...)
		s.emit(qlog.Event{Kind: qlog.KindSessionJoin, Detail: c.videoName})
		s.step = stepManifest
	case stepManifest:
		prof, err := parseManifest(r.body, s.v)
		if err != nil {
			return err
		}
		s.prof, s.observed, s.fetchedFor = prof, prof.Epoch, prof.Epoch
		s.step = stepWeights
	case stepWeights:
		p, err := parseWeights(r.body, s.v)
		if err != nil {
			return fmt.Errorf("dash: refreshing weights at chunk %d: %w", s.i, err)
		}
		if p.Epoch > s.prof.Epoch {
			s.prof = p
		}
		sess.WeightRefreshes++
		s.emit(qlog.Event{Kind: qlog.KindEpochAdopted, Chunk: int32(s.i), Epoch: s.prof.Epoch})
		s.step = stepDecide
	case stepSegment:
		s.deliver(r)
		s.step = stepRate
	case stepRate:
		var rr wire.RatingResponse
		if err := rr.Parse(r.body); err != nil {
			return fmt.Errorf("dash: rating chunk %d: decoding reply: %w", s.i, err)
		}
		if rr.Status != wire.StatusAccepted && rr.Status != wire.StatusQuarantined {
			return fmt.Errorf("dash: origin returned rating status %q", rr.Status)
		}
		ev := qlog.Event{Kind: qlog.KindRatingPosted, Chunk: int32(s.i), Epoch: s.prof.Epoch, Extra: int64(s.score)}
		sess.RatingsPosted++
		s.emit(ev)
		ev.Kind, ev.Extra = qlog.KindRatingQuarantined, 0
		if rr.Status == wire.StatusAccepted {
			ev.Kind = qlog.KindRatingAccepted
			sess.RatingsAccepted++
		} else {
			sess.RatingsQuarantined++
		}
		s.emit(ev)
		// The reply's epoch beacon feeds the same staleness tracking as a
		// segment's, so a refresh the fleet's own ratings triggered still
		// reaches this session within one chunk.
		s.observed = max(s.observed, r.epoch)
		s.i, s.step = s.i+1, stepWeights
	case stepLeave:
		s.emit(qlog.Event{Kind: qlog.KindSessionLeave, Bytes: c.streamedBytes, Extra: c.streamedChunks})
		c.sid = ""
		s.step = stepDone
	}
	return nil
}

// deliver lands chunk i's segment on the playback model.
func (s *session) deliver(r *reply) {
	sess := s.sess
	s.observed = max(s.observed, r.epoch)
	// The throughput sample sees only the successful attempt (floored: see
	// MinDownloadVirtualSec); playback drains for the whole acquisition —
	// retries, backoff pauses and truncated attempts included: a
	// fault-lengthened download is a real stall.
	downloadSec := max(r.sec/s.scale, MinDownloadVirtualSec)
	bits := float64(r.n * 8)
	stall := s.pb.Deliver(s.rung, bits, downloadSec, max(s.totalSec/s.scale, downloadSec))
	sess.BytesDownloaded += r.n + s.partialBytes
	sess.DownloadVirtualSec += downloadSec + s.partialSec/s.scale
	sess.ThroughputBps = append(sess.ThroughputBps, bits/downloadSec)
	i, rung := int32(s.i), int32(s.rung)
	if s.partialBytes > 0 {
		// Ledgered bytes that never became a throughput sample: chunk_done
		// plus chunk_progress bytes sum to BytesDownloaded exactly.
		s.emit(qlog.Event{Kind: qlog.KindChunkProgress, Chunk: i,
			Rung: rung, Bytes: s.partialBytes})
	}
	if stall > 0 {
		s.stall(stall)
	}
	if s.c.Metrics != nil {
		s.c.Metrics.DownloadLatency.Observe(int64(r.sec * float64(time.Second)))
	}
	s.emit(qlog.Event{
		Kind: qlog.KindChunkDone, Chunk: i, Rung: rung,
		Bytes: r.n,
		Wire:  time.Duration(r.sec * float64(time.Second)),
		Virt:  time.Duration(downloadSec * float64(time.Second)),
		Tput:  bits / downloadSec,
	})
	s.emit(qlog.Event{Kind: qlog.KindBufferSample, Chunk: i,
		Extra: int64(s.pb.BufferSec() * float64(time.Second))})
}

// segmentURL is chunk i's URL at rung in the joined session: segURL holds
// videoURL followed by the last segment URL's tail, so a segment URL costs
// one string.
func (c *Client) segmentURL(i, rung int) string {
	b := wire.AppendSegment(c.segURL[:len(c.videoURL)], i, rung)
	c.segURL = append(b, c.sidQuery...)
	return string(c.segURL)
}

// finish closes the playback and the session's ledgers.
func (s *session) finish() error {
	res, err := s.pb.Finish(0) // no trace clock here: Result.WallClockSec goes unread
	if err != nil {
		return fmt.Errorf("dash: %w", err)
	}
	s.sess.ChunkEpochs, s.sess.RebufferVirtualSec = res.ChunkEpochs, res.RebufferSec
	s.sess.Weights, s.sess.WeightEpoch = s.prof.Weights, s.prof.Epoch
	s.sess.Resilience = s.c.Resilience()
	s.c.streamedBytes, s.c.streamedChunks = s.sess.BytesDownloaded, int64(s.v.NumChunks())
	s.step = stepDone
	return nil
}

// parseManifest decodes a manifest and validates it against the local
// video model, returning the profile snapshot the session starts on.
func parseManifest(body []byte, v *video.Video) (*sensitivity.Profile, error) {
	mpd, err := wire.ParseMPD(body)
	if err != nil {
		return nil, fmt.Errorf("dash: decoding manifest: %w", err)
	}
	// A manifest whose ladder disagrees with the local video model would
	// silently stream wrong segment sizes; fail loudly instead.
	if err := validateLadder(v, mpd.Ladder()); err != nil {
		return nil, err
	}
	// Weights reads rung 0's vector; rungs that disagree leave no way to
	// tell which one the origin meant.
	reps := mpd.Period.AdaptationSet.Representations
	for i := 1; i < len(reps); i++ {
		if reps[i].SenseiWeights != reps[0].SenseiWeights {
			return nil, fmt.Errorf("dash: manifest rung %d carries other weights than rung 0", i)
		}
	}
	weights, err := mpd.Weights()
	if err != nil {
		return nil, fmt.Errorf("dash: decoding manifest: %w", err)
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

// parseWeights decodes and validates a GET /weights body.
func parseWeights(body []byte, v *video.Video) (*sensitivity.Profile, error) {
	var wr wire.WeightsResponse
	if err := wr.Parse(body); err != nil {
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

// validateLadder checks the manifest ladder against the local video model.
func validateLadder(v *video.Video, ladder []int) error {
	if !slices.Equal(ladder, v.Ladder) {
		return fmt.Errorf("dash: manifest ladder %v kbps disagrees with local video %q's %v", ladder, v.Name, v.Ladder)
	}
	return nil
}

// emit stamps ev with the session's now and appends it to the trace ring.
// A nil ring makes this a no-op, so call sites stay unconditional; a full
// ring drops (and the registry counts the drop) rather than block.
func (s *session) emit(ev qlog.Event) {
	if s.c.Events == nil {
		return
	}
	ev.T = s.now
	qlog.Emit(s.c.Events, s.c.Metrics, ev)
}

// degrade records one graceful-degradation step on its ledger counter;
// step is the token its KindDegradation event carries.
func (s *session) degrade(counter *int64, step string) {
	*counter++
	if s.c.Metrics != nil {
		s.c.Metrics.Degradations.Inc()
	}
	s.emit(qlog.Event{Kind: qlog.KindDegradation, Detail: step})
}

// stall records one realized stall of sec session-virtual seconds as a
// begin/end event pair plus a histogram observation.
func (s *session) stall(sec float64) {
	ns := int64(sec * float64(time.Second))
	if s.c.Metrics != nil {
		s.c.Metrics.StallDuration.Observe(ns)
	}
	s.emit(qlog.Event{Kind: qlog.KindStallBegin, Extra: ns})
	s.emit(qlog.Event{Kind: qlog.KindStallEnd, Virt: time.Duration(ns)})
}
