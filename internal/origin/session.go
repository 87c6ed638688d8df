package origin

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/qlog"
)

// registryShards is the lock-striping width of the session registry.
// Sessions stripe across shards by FNV-1a of their ID (the same pattern
// internal/ingest uses for videos), so the per-segment session resolve
// contends only with the handful of sessions sharing one stripe instead of
// every session in the process. 32 stripes keeps the worst case tiny even
// at the 4096-session default cap.
const registryShards = 32

// sessionShard is one lock stripe of the registry plus its slice of the
// origin-wide byte/segment ledgers. The hot path adds to its own shard's
// counters (one uncontended cache line per stripe instead of one global
// line every core fights over); Stats folds the stripes. The trailing pad
// keeps neighbouring shards' counters from sharing a cache line.
type sessionShard struct {
	mu       sync.RWMutex
	sessions map[string]*session

	bytes    atomic.Int64
	segments atomic.Int64
	_        [64]byte
}

// session is one client's streaming context: its own trace-replaying
// shaper (the per-session bottleneck), the video it is pinned to, and the
// bookkeeping the control plane reports via /stats. Sessions are created
// by POST /session, touched by every manifest/segment request, and reaped
// by the idle janitor.
type session struct {
	id        string
	videoName string
	traceName string
	timeScale float64
	shaper    *Shaper
	shard     *sessionShard // the registry stripe holding this session

	created  time.Duration // origin clock reading at join
	lastSeen atomic.Int64  // origin clock reading, nanoseconds
	inflight atomic.Int64  // segment streams currently being served
	bytes    atomic.Int64
	segments atomic.Int64

	// ring is the session's server-side event ring (nil when the event
	// plane is disabled), drained via GET /events?sid=.
	ring *qlog.Ring
}

// NewSessionID returns a 16-hex-char random identifier, unique for all
// practical purposes within one process. The origin mints one per join;
// the multi-origin router mints them for its shards.
func NewSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal everywhere else in the
		// process too; fall back to a clock-derived ID rather than panic.
		return "s" + hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))
	}
	var h [2 * len(b)]byte
	return string(hex.AppendEncode(h[:0], b[:]))
}

// touch marks the session as active at the given clock reading.
func (s *session) touch(now time.Duration) {
	s.lastSeen.Store(int64(now))
}

// idleSince reports how long the session has been idle at clock reading
// now.
func (s *session) idleSince(now time.Duration) time.Duration {
	return now - time.Duration(s.lastSeen.Load())
}

// shardFor stripes session IDs across registry shards (inline FNV-1a: the
// hot path must not allocate a hasher).
func (o *Origin) shardFor(id string) *sessionShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &o.shards[h%registryShards]
}

// addSession registers a new session; it fails when the origin is at its
// session cap (or, vanishingly, on a session-ID collision). The cap is an
// atomic reservation, not a registry-wide lock: reserve a slot, roll back
// if over.
func (o *Origin) addSession(s *session) bool {
	if o.active.Add(1) > int64(o.cfg.MaxSessions) {
		o.active.Add(-1)
		return false
	}
	sh := o.shardFor(s.id)
	s.shard = sh
	sh.mu.Lock()
	if _, dup := sh.sessions[s.id]; dup {
		sh.mu.Unlock()
		o.active.Add(-1)
		return false
	}
	sh.sessions[s.id] = s
	sh.mu.Unlock()
	o.sessionsCreated.Add(1)
	return true
}

// lookupSession resolves a session ID, refreshing its idle clock. Readers
// share the stripe's RLock, so concurrent lookups never serialize on each
// other.
func (o *Origin) lookupSession(id string) (*session, bool) {
	sh := o.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if ok {
		s.touch(o.cfg.Clock.Now())
	}
	return s, ok
}

// lookupSessionStream resolves a session and marks a stream in flight while
// still holding the stripe's read lock, so a concurrent DELETE (or the
// janitor) — which takes the stripe's write lock and checks inflight under
// it — can never observe inflight==0 between the lookup and the increment.
// Readers only share-lock the stripe: the per-segment hot path never
// serializes sessions against each other, and last-active stays a plain
// atomic store. The caller must decrement s.inflight when the stream
// drains.
func (o *Origin) lookupSessionStream(id string) (*session, bool) {
	sh := o.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	if ok {
		s.inflight.Add(1)
	}
	sh.mu.RUnlock()
	if ok {
		s.touch(o.cfg.Clock.Now())
	}
	return s, ok
}

// removeOutcome is removeSession's tri-state result.
type removeOutcome int

const (
	removeMissing removeOutcome = iota // no such session
	removeBusy                         // session has a stream in flight
	removeDone                         // session deleted
)

// removeSession deletes a session (client hang-up via DELETE /session). A
// session with a segment stream in flight is refused — the same rule the
// janitor's expireIdle applies — so the byte/segment ledgers of a live
// stream always land on a registered session and /stats stays consistent
// with bytes_served.
func (o *Origin) removeSession(id string) removeOutcome {
	sh := o.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		return removeMissing
	}
	if s.inflight.Load() > 0 {
		return removeBusy
	}
	delete(sh.sessions, id)
	o.active.Add(-1)
	o.sessionsClosed.Add(1)
	return removeDone
}

// expireIdle removes sessions idle longer than the configured timeout at
// clock reading now and returns how many were reaped, one stripe at a time
// so the janitor never stalls the whole registry. The janitor calls it
// periodically; tests call it directly.
func (o *Origin) expireIdle(now time.Duration) int {
	var reaped int
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		for id, s := range sh.sessions {
			// A session with a stream in flight is never idle, however long a
			// single throttle sleep lasts (a deep-fade trace at timescale 1
			// can hold one slice for minutes).
			if s.inflight.Load() > 0 {
				continue
			}
			if s.idleSince(now) > o.cfg.SessionIdleTimeout {
				delete(sh.sessions, id)
				o.active.Add(-1)
				o.sessionsExpired.Add(1)
				reaped++
			}
		}
		sh.mu.Unlock()
	}
	return reaped
}

// janitor periodically reaps idle sessions until the origin closes. Its
// cadence is deliberately wall-clock even when the origin runs on a
// virtual clock: idle durations are measured in clock time (expireIdle
// compares clock readings), but nothing in the system synchronizes on
// expiry, so making the janitor a registered vclock participant would
// only let its parked deadline free-run simulated time through every
// quiescent gap. Sampling the clock on a wall cadence reaps exactly the
// sessions whose *simulated* idle time exceeded the timeout.
func (o *Origin) janitor(interval time.Duration) {
	defer o.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-t.C:
			o.expireIdle(o.cfg.Clock.Now())
		}
	}
}
