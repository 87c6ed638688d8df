// Package ingest is the closed-loop feedback plane: the origin-side
// subsystem that turns live user ratings into autonomous sensitivity
// refreshes, closing the crowdsourcing loop SENSEI's §4 pipeline runs
// offline. Clients post one 1–5 rating per rendered chunk (POST /rating on
// the origin); a lock-striped aggregator accumulates the evidence per
// video × chunk-window with recency decay and bounded memory; and an
// autopilot controller converts accumulated MOS deltas into
// WeightService.RefreshWindow calls — publishing a new profile epoch that
// every active session adopts mid-stream — once a confidence gate passes.
//
// The design constraints, in order:
//
//   - The ingest hot path must be cheap: a rating touches one shard mutex,
//     folds two float64s into its window, and re-checks the gate. No
//     allocation after the first rating for a video, no campaign ever runs
//     on the request path.
//   - Evidence must be trustworthy. Ratings are stamped with the weight
//     epoch the client's decision ran under; a rating for a stale epoch
//     describes playback planned under superseded weights, so it is counted
//     in the ledger but quarantined from the estimate. Memory is bounded by
//     the catalog: per video the window table is a fixed-size array, and
//     decayed evidence is two float64s per window.
//   - Refreshes must be rare and deliberate. The confidence gate demands a
//     minimum decayed sample count in the window, a minimum interval since
//     the video's last refresh attempt, and hysteresis on the implied
//     weight change — the MOS contrast between the window and the rest of
//     the video, scaled by Gain, must exceed MinWeightDelta. A passing gate
//     enqueues one bounded job; a single worker runs the (slow) re-profiling
//     campaign off the request path and resets the window's evidence once
//     the new epoch is published, so consumed evidence cannot re-trigger.
//
// The controller is deliberately a *scheduler*, not an estimator: deciding
// WHEN a window's profile is stale is driven by live ratings, while the new
// weights still come from the full §4 campaign (RefreshWindow re-profiles
// the chunk window with the origin's ProfileFunc). This mirrors the paper's
// deployment story — crowdsourcing stays the source of truth; the closed
// loop decides where to spend it.
package ingest

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/mos"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// Refresher is the ingest plane's hook into the weight service: the
// autopilot reads current epochs through it (the quarantine check) and
// publishes window refreshes. origin.Origin implements it over its
// WeightService.
type Refresher interface {
	// EpochOf peeks at a video's current profile epoch without triggering
	// profiling (0 = unprofiled/unresolved).
	EpochOf(videoName string) uint64
	// RefreshWindow re-profiles chunks [lo, hi) of the named video and
	// publishes the spliced result as the next epoch.
	RefreshWindow(videoName string, lo, hi int) (uint64, error)
}

// Defaults for Config's zero values.
const (
	DefaultWindowChunks   = 4
	DefaultMinSamples     = 32
	DefaultMinInterval    = 30 * time.Second
	DefaultMinWeightDelta = 0.25
	DefaultGain           = 2.0
	DefaultDecayHalfLife  = 2 * time.Minute
	DefaultShards         = 8
	DefaultQueueDepth     = 64
)

// Config tunes the feedback plane. The zero value of every field selects
// the production-ish default documented on the matching constant.
type Config struct {
	// WindowChunks is the chunk-window granularity evidence is aggregated
	// (and refreshes are published) at.
	WindowChunks int
	// MinSamples is the decayed evidence count a window needs before the
	// gate considers it at all.
	MinSamples int
	// MinInterval is the minimum spacing between refresh attempts of the
	// same video — the autopilot's rate limit against rating bursts.
	MinInterval time.Duration
	// MinWeightDelta is the hysteresis threshold: the implied weight change
	// (Gain × the window-vs-video MOS contrast) must exceed it.
	MinWeightDelta float64
	// Gain converts a normalized MOS contrast into an implied weight delta.
	Gain float64
	// DecayHalfLife is the recency half-life of accumulated evidence: a
	// rating's contribution halves every half-life, so stale opinion decays
	// out instead of pinning the estimate forever.
	DecayHalfLife time.Duration
	// Shards is the lock-striping width across videos.
	Shards int
	// QueueDepth bounds pending refresh jobs; a passing gate with a full
	// queue drops the trigger (counted) rather than blocking the hot path.
	QueueDepth int
	// Clock is the timing plane refresh jobs are accounted on (nil selects
	// the wall clock). Under a virtual clock every queued job holds one
	// registered activity unit from enqueue until its campaign settles, so
	// simulated time cannot advance past an autonomous refresh that is
	// still in flight.
	Clock vclock.Clock
	// Now overrides the evidence clock (tests). Nil derives it from Clock,
	// so recency decay runs in simulated time under a virtual clock.
	Now func() time.Time
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.WindowChunks <= 0 {
		c.WindowChunks = DefaultWindowChunks
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MinInterval <= 0 {
		c.MinInterval = DefaultMinInterval
	}
	if c.MinWeightDelta <= 0 {
		c.MinWeightDelta = DefaultMinWeightDelta
	}
	if c.Gain <= 0 {
		c.Gain = DefaultGain
	}
	if c.DecayHalfLife <= 0 {
		c.DecayHalfLife = DefaultDecayHalfLife
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.Now == nil {
		// Anchor evidence timestamps to the clock: under the wall clock
		// this is ordinary time; under a virtual clock, decay and refresh
		// rate limits run in simulated time.
		clock, epoch := c.Clock, time.Unix(0, 0)
		c.Now = func() time.Time { return epoch.Add(clock.Now()) }
	}
	return c
}

// Outcome classifies one ingested rating.
type Outcome int

// Ingest outcomes.
const (
	// Accepted ratings entered the window's evidence.
	Accepted Outcome = iota
	// Quarantined ratings were counted but kept out of the estimate: they
	// were stamped with a weight epoch that is no longer (or not yet) the
	// video's current one, so they describe playback planned under
	// superseded weights.
	Quarantined
)

// Stats is the plane's counter snapshot — the origin embeds it in /stats,
// and the fleet's ingest ledger reconciles against it exactly.
type Stats struct {
	RatingsAccepted    int64 `json:"ratings_accepted"`
	RatingsQuarantined int64 `json:"ratings_quarantined"`
	RatingsRejected    int64 `json:"ratings_rejected"`
	RefreshesTriggered int64 `json:"refreshes_triggered"`
	RefreshesApplied   int64 `json:"refreshes_applied"`
	RefreshErrors      int64 `json:"refresh_errors"`
	TriggersDropped    int64 `json:"triggers_dropped"`
}

// windowEvidence is one chunk window's decayed rating accumulator plus the
// autopilot's in-flight latch.
type windowEvidence struct {
	count    float64 // decayed sample count
	sum      float64 // decayed sum of normalized ([0,1]) ratings
	touched  time.Time
	inflight bool // a refresh job for this window is queued or running
}

// videoEvidence is one video's fixed-size window table.
type videoEvidence struct {
	chunks      int
	windows     []windowEvidence
	lastAttempt time.Time // last gate pass (enqueue or drop) — the rate limit
}

// shard is one lock stripe of the aggregator.
type shard struct {
	mu     sync.Mutex
	videos map[string]*videoEvidence
}

// job is one queued autonomous refresh.
type job struct {
	videoName string
	win       int
	lo, hi    int
}

// Plane is the feedback-ingestion subsystem: sharded aggregator plus
// autopilot worker. Create with New, feed with Ingest, and Close when done.
type Plane struct {
	cfg    Config
	ref    Refresher
	shards []shard

	queue chan job

	// pending counts queued + running refresh jobs; idle is lazily created
	// by a Quiesce waiter and closed when pending drains to zero, so
	// quiescing is a blocking wait on a condition signal, never a poll.
	pendMu  sync.Mutex
	pending int64
	idle    chan struct{}

	accepted    atomic.Int64
	quarantined atomic.Int64
	rejected    atomic.Int64
	triggered   atomic.Int64
	applied     atomic.Int64
	errored     atomic.Int64
	dropped     atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	logf func(format string, args ...any) // nil discards
}

// New builds a plane over the given refresher and starts the autopilot
// worker. logf may be nil to discard operational logs. Callers must Close.
func New(cfg Config, ref Refresher, logf func(format string, args ...any)) (*Plane, error) {
	if ref == nil {
		return nil, fmt.Errorf("ingest: nil refresher")
	}
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:    cfg,
		ref:    ref,
		shards: make([]shard, cfg.Shards),
		queue:  make(chan job, cfg.QueueDepth),
		done:   make(chan struct{}),
		logf:   logf,
	}
	for i := range p.shards {
		p.shards[i].videos = map[string]*videoEvidence{}
	}
	p.wg.Add(1)
	go p.worker()
	return p, nil
}

// Close stops the autopilot worker. Queued-but-unstarted jobs are abandoned;
// use Quiesce first when they must land.
func (p *Plane) Close() {
	p.closeOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}

// Stats snapshots the counters.
func (p *Plane) Stats() Stats {
	return Stats{
		RatingsAccepted:    p.accepted.Load(),
		RatingsQuarantined: p.quarantined.Load(),
		RatingsRejected:    p.rejected.Load(),
		RefreshesTriggered: p.triggered.Load(),
		RefreshesApplied:   p.applied.Load(),
		RefreshErrors:      p.errored.Load(),
		TriggersDropped:    p.dropped.Load(),
	}
}

// Quiesce blocks until every triggered refresh has completed (applied or
// errored) or ctx expires. Harnesses call it between draining their clients
// and reading /stats, so the refresh counters are settled when the ledgers
// are reconciled. The wait is condition-signaled — the worker closes the
// idle channel when the last pending job settles — so quiescing burns no
// CPU and works identically under real and virtual clocks (nothing here
// sleeps, so an un-registered caller cannot deadlock a simulation).
func (p *Plane) Quiesce(ctx context.Context) error {
	for {
		p.pendMu.Lock()
		if p.pending == 0 {
			p.pendMu.Unlock()
			return nil
		}
		if p.idle == nil {
			p.idle = make(chan struct{})
		}
		idle := p.idle
		p.pendMu.Unlock()
		select {
		case <-idle:
		case <-ctx.Done():
			return fmt.Errorf("ingest: quiesce: %w", ctx.Err())
		}
	}
}

// addPending adjusts the pending-job count, signalling any Quiesce waiters
// when it drains to zero.
func (p *Plane) addPending(delta int64) {
	p.pendMu.Lock()
	p.pending += delta
	if p.pending == 0 && p.idle != nil {
		close(p.idle)
		p.idle = nil
	}
	p.pendMu.Unlock()
}

// shardFor stripes videos across shards by name.
func (p *Plane) shardFor(videoName string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(videoName))
	return &p.shards[h.Sum32()%uint32(len(p.shards))]
}

// Ingest folds one chunk rating into the plane. epoch is the weight epoch
// the rating's session made its chunk decision under; value is the 1–5
// Likert score. Malformed ratings (chunk out of range, value off the scale)
// are rejected with an error; stale-epoch ratings are quarantined. An
// accepted rating may trigger an autonomous window refresh as a side
// effect — asynchronously, never on this call path.
func (p *Plane) Ingest(v *video.Video, chunk int, epoch uint64, value int) (Outcome, error) {
	if chunk < 0 || chunk >= v.NumChunks() {
		p.rejected.Add(1)
		return 0, fmt.Errorf("ingest: chunk %d outside %q's %d chunks", chunk, v.Name, v.NumChunks())
	}
	if value < mos.LikertMin || value > mos.LikertMax {
		p.rejected.Add(1)
		return 0, fmt.Errorf("ingest: rating %d outside %d-%d", value, mos.LikertMin, mos.LikertMax)
	}
	now := p.cfg.Now()

	s := p.shardFor(v.Name)
	s.mu.Lock()
	// The epoch peek happens under the shard lock on purpose: runRefresh
	// publishes the new epoch BEFORE it takes this lock to reset the
	// consumed window, so an in-lock peek either already sees the new
	// epoch (quarantine) or folds strictly before the reset wipes the old
	// evidence. An out-of-lock peek could pass on the old epoch and then
	// fold stale opinion into the freshly reset window. (EpochOf briefly
	// takes the weight service's own mutex; no caller holds that while
	// waiting on a shard, so the order cannot deadlock.)
	cur := p.ref.EpochOf(v.Name)
	if cur == 0 || epoch != cur {
		s.mu.Unlock()
		// Counted, never folded in: the rating describes playback planned
		// under weights that are not the current belief (or a video with no
		// profile to refresh at all).
		p.quarantined.Add(1)
		return Quarantined, nil
	}
	ve := s.videos[v.Name]
	if ve == nil {
		nw := (v.NumChunks() + p.cfg.WindowChunks - 1) / p.cfg.WindowChunks
		ve = &videoEvidence{chunks: v.NumChunks(), windows: make([]windowEvidence, nw)}
		s.videos[v.Name] = ve
	}
	win := chunk / p.cfg.WindowChunks
	w := &ve.windows[win]
	p.decay(w, now)
	w.count++
	w.sum += float64(value-mos.LikertMin) / float64(mos.LikertMax-mos.LikertMin)
	p.accepted.Add(1)

	trigger := p.gatePasses(ve, win, now)
	if trigger {
		w.inflight = true
		ve.lastAttempt = now
	}
	s.mu.Unlock()

	if trigger {
		lo := win * p.cfg.WindowChunks
		hi := lo + p.cfg.WindowChunks
		if hi > v.NumChunks() {
			hi = v.NumChunks()
		}
		p.enqueue(job{videoName: v.Name, win: win, lo: lo, hi: hi})
	}
	return Accepted, nil
}

// decay applies the recency half-life to a window's accumulator, lazily, at
// touch time.
func (p *Plane) decay(w *windowEvidence, now time.Time) {
	if !w.touched.IsZero() {
		if dt := now.Sub(w.touched); dt > 0 {
			f := math.Exp2(-dt.Seconds() / p.cfg.DecayHalfLife.Seconds())
			w.count *= f
			w.sum *= f
		}
	}
	w.touched = now
}

// gatePasses evaluates the confidence gate for one window, caller holding
// the shard lock. All three conditions must hold: enough decayed evidence in
// the window, the video's refresh rate limit expired, and the implied weight
// change past the hysteresis threshold. The contrast baseline is the rest of
// the video's evidence — a single-window video has no contrast and never
// self-triggers.
func (p *Plane) gatePasses(ve *videoEvidence, win int, now time.Time) bool {
	// The decayed count of N just-folded samples lands epsilon below N
	// (each lazy decay multiplies by exp2(-dt/halfLife) < 1 even for a
	// microsecond dt); without the slack an integer floor of N would be
	// unreachable by exactly-N fresh ratings.
	const sampleFloorSlack = 1e-6
	w := &ve.windows[win]
	if w.inflight || w.count < float64(p.cfg.MinSamples)-sampleFloorSlack {
		return false
	}
	if !ve.lastAttempt.IsZero() && now.Sub(ve.lastAttempt) < p.cfg.MinInterval {
		return false
	}
	var restCount, restSum float64
	for i := range ve.windows {
		if i == win {
			continue
		}
		p.decay(&ve.windows[i], now)
		restCount += ve.windows[i].count
		restSum += ve.windows[i].sum
	}
	if restCount <= 0 {
		return false
	}
	contrast := math.Abs(w.sum/w.count - restSum/restCount)
	return p.cfg.Gain*contrast >= p.cfg.MinWeightDelta
}

// enqueue hands a job to the worker, dropping (and counting) it when the
// queue is full or the plane is closed — the hot path never blocks on the
// campaign backlog. A queued job holds one clock activity unit (released
// by the worker when the campaign settles): under a virtual clock,
// simulated time cannot advance past a refresh that is still pending. The
// Enter happens before the send so the worker's matching Exit can never
// run first.
func (p *Plane) enqueue(j job) {
	p.addPending(1)
	p.cfg.Clock.Enter()
	select {
	case p.queue <- j:
		p.triggered.Add(1)
	default:
		p.cfg.Clock.Exit()
		p.addPending(-1)
		p.dropped.Add(1)
		p.clearInflight(j)
	}
}

// worker is the autopilot's single execution lane: refresh campaigns run
// here, off the rating path, one at a time (the weight service serializes
// per-video publishes anyway, and one lane keeps epoch bumps orderly).
func (p *Plane) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case j := <-p.queue:
			p.runRefresh(j)
			p.addPending(-1)
			p.cfg.Clock.Exit()
		}
	}
}

// runRefresh executes one autonomous window refresh and settles the
// window's latch: on success the consumed evidence is reset so it cannot
// re-trigger, on failure it is kept (the next gate pass, MinInterval later,
// retries).
func (p *Plane) runRefresh(j job) {
	epoch, err := p.ref.RefreshWindow(j.videoName, j.lo, j.hi)
	s := p.shardFor(j.videoName)
	s.mu.Lock()
	if ve := s.videos[j.videoName]; ve != nil && j.win < len(ve.windows) {
		ve.windows[j.win].inflight = false
		if err == nil {
			ve.windows[j.win].count = 0
			ve.windows[j.win].sum = 0
		}
	}
	s.mu.Unlock()
	if err != nil {
		p.errored.Add(1)
		p.log("ingest: autonomous refresh of %q chunks [%d,%d): %v", j.videoName, j.lo, j.hi, err)
		return
	}
	p.applied.Add(1)
	p.log("ingest: autonomous refresh of %q chunks [%d,%d) published epoch %d", j.videoName, j.lo, j.hi, epoch)
}

// clearInflight releases a window latch for a job that never ran.
func (p *Plane) clearInflight(j job) {
	s := p.shardFor(j.videoName)
	s.mu.Lock()
	if ve := s.videos[j.videoName]; ve != nil && j.win < len(ve.windows) {
		ve.windows[j.win].inflight = false
	}
	s.mu.Unlock()
}

func (p *Plane) log(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}
