// Package chaos is the deterministic fault-injection plane of the SENSEI
// testbed. A seeded Policy describes, per endpoint kind, how often and in
// which modes the origin should fail requests; an Injector decides each
// request's fate and keeps an exact ledger of everything it injected. The
// package is pure: it never sees a request, a connection or a clock, so
// the origin's two adapters (sockets and the fleet's typed Call) realize
// each Mode themselves.
//
// Determinism is the whole point: every fault decision is a pure hash of
// (policy seed, stream key, endpoint kind, per-stream sequence number), so
// a fleet run that saw a fault can be replayed — Policy.Replay recomputes
// the identical decision sequence from the seed alone, and tests assert the
// injector's journal against it. The stream key is chosen by the client
// (the KeyHeader request header, one stable key per session slot), which
// keeps decisions independent of scheduling: whichever goroutine's request
// arrives first, stream s's third segment GET always meets the same fate.
//
// The origin decides before a route acts (5xx replies, connection resets,
// stalls), so a faulted attempt has no server-side effects and the
// origin's byte/segment/session ledgers stay exact under retry. The one
// exception is truncation, which must deliver a partial body: the segment
// route declares the full length, delivers Policy.Truncate's prefix and
// counts only those bytes.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"sensei/internal/hashx"
)

// Kind names an endpoint class of the origin's API surface.
type Kind string

const (
	// KindSession covers session control ops: POST /session and DELETE
	// /session/{id}.
	KindSession Kind = "session"
	// KindManifest covers GET /v/{video}/manifest.mpd.
	KindManifest Kind = "manifest"
	// KindSegment covers GET /v/{video}/segment/{chunk}/{rung}.
	KindSegment Kind = "segment"
	// KindWeights covers GET /weights — faulting it emulates transient
	// weight-service unavailability.
	KindWeights Kind = "weights"
	// KindRating covers POST /rating.
	KindRating Kind = "rating"
)

// Kinds returns every endpoint kind, in stable order.
func Kinds() []Kind {
	return []Kind{KindSession, KindManifest, KindSegment, KindWeights, KindRating}
}

// Mode is the failure shape of one injected fault.
type Mode string

const (
	// ModeError answers 503 Service Unavailable without running the route.
	ModeError Mode = "error"
	// ModeReset aborts the connection before the route runs — the client
	// sees a transport error (reset/EOF), never an HTTP status.
	ModeReset Mode = "reset"
	// ModeStall serves dead air for the policy's StallDelay, then aborts
	// the connection: a slow, silent wire rather than a fast failure.
	ModeStall Mode = "stall"
	// ModeTruncate (segment endpoints only) declares the full
	// Content-Length but delivers a prefix of the body before hanging up.
	ModeTruncate Mode = "truncate"
)

// KeyHeader carries the client-chosen chaos stream key on every request.
// Keying fault streams on a stable caller identity (fleet slot index)
// instead of the random session ID is what makes a whole fleet run
// replayable from one seed.
const KeyHeader = "X-Sensei-Chaos-Key"

// InjectedHeader marks a faulted response with its mode, for debugging with
// curl; reconciliation never relies on it (resets carry no headers at all).
const InjectedHeader = "X-Sensei-Chaos"

// anonKey buckets requests that carry neither KeyHeader nor a session ID.
const anonKey = "anon"

// Defaults for zero Policy fields.
const (
	DefaultMaxConsecutive   = 2
	DefaultStallDelay       = 25 * time.Millisecond
	DefaultTruncateFraction = 0.5
)

// Spec is the fault profile of one endpoint kind.
type Spec struct {
	// Rate is the per-request fault probability in [0, 1).
	Rate float64 `json:"rate"`
	// Modes is the mode mix faults are drawn from, uniformly. Empty means
	// the kind's default mix (DefaultModes).
	Modes []Mode `json:"modes,omitempty"`
}

// DefaultModes returns the mode mix used when a Spec leaves Modes empty:
// every kind can error, reset, or stall; segments can also truncate.
func DefaultModes(k Kind) []Mode {
	if k == KindSegment {
		return []Mode{ModeError, ModeReset, ModeStall, ModeTruncate}
	}
	return []Mode{ModeError, ModeReset, ModeStall}
}

// Policy is a complete, seeded fault-injection configuration.
type Policy struct {
	// Seed keys every fault decision; the same seed replays the same run.
	Seed uint64 `json:"seed"`
	// Endpoints maps each endpoint kind to its fault profile. Kinds absent
	// from the map are never faulted.
	Endpoints map[Kind]Spec `json:"endpoints"`
	// MaxConsecutive is the fault ceiling: the longest run of back-to-back
	// faults one (key, kind) stream can see before a clean request is
	// forced. Keeping it below the client's retry budget guarantees every
	// wire operation eventually succeeds — the fleet chaos proof depends
	// on exactly that inequality. 0 means DefaultMaxConsecutive.
	MaxConsecutive int `json:"max_consecutive,omitempty"`
	// StallDelay is how long ModeStall serves dead air before hanging up.
	StallDelay time.Duration `json:"stall_delay,omitempty"`
	// TruncateFraction is the fraction of the declared Content-Length a
	// ModeTruncate fault actually delivers, clamped to at least one byte
	// and at most one byte short of the full body.
	TruncateFraction float64 `json:"truncate_fraction,omitempty"`
}

// Uniform returns a policy faulting every endpoint kind at the same rate
// with each kind's default mode mix.
func Uniform(seed uint64, rate float64) Policy {
	eps := make(map[Kind]Spec, len(Kinds()))
	for _, k := range Kinds() {
		eps[k] = Spec{Rate: rate}
	}
	return Policy{Seed: seed, Endpoints: eps}
}

// Validate rejects rates outside [0, 1), unknown kinds or modes, and
// ModeTruncate on non-segment kinds (only the segment handler cooperates
// with truncation, and an un-realized fault would break the two-sided
// ledger equality reconciliation asserts).
func (p *Policy) Validate() error {
	known := map[Kind]bool{}
	for _, k := range Kinds() {
		known[k] = true
	}
	for kind, spec := range p.Endpoints {
		if !known[kind] {
			return fmt.Errorf("chaos: unknown endpoint kind %q", kind)
		}
		if spec.Rate < 0 || spec.Rate >= 1 {
			return fmt.Errorf("chaos: %s rate %v outside [0, 1)", kind, spec.Rate)
		}
		for _, m := range spec.Modes {
			switch m {
			case ModeError, ModeReset, ModeStall:
			case ModeTruncate:
				if kind != KindSegment {
					return fmt.Errorf("chaos: mode %q is segment-only, configured on %q", m, kind)
				}
			default:
				return fmt.Errorf("chaos: unknown mode %q on %q", m, kind)
			}
		}
	}
	if p.MaxConsecutive < 0 {
		return fmt.Errorf("chaos: MaxConsecutive %d < 0", p.MaxConsecutive)
	}
	if p.StallDelay < 0 {
		return fmt.Errorf("chaos: StallDelay %v < 0", p.StallDelay)
	}
	if p.TruncateFraction < 0 || p.TruncateFraction >= 1 {
		return fmt.Errorf("chaos: TruncateFraction %v outside [0, 1)", p.TruncateFraction)
	}
	return nil
}

func (p *Policy) maxConsecutive() int {
	if p.MaxConsecutive <= 0 {
		return DefaultMaxConsecutive
	}
	return p.MaxConsecutive
}

// Stall is how long a ModeStall fault serves dead air before hanging up.
func (p *Policy) Stall() time.Duration {
	if p.StallDelay <= 0 {
		return DefaultStallDelay
	}
	return p.StallDelay
}

// Truncate is how many bytes of a size-byte body a ModeTruncate fault
// delivers: TruncateFraction of it, at least one byte and at least one
// byte short. A body under two bytes cannot be truncated and is delivered
// whole.
func (p *Policy) Truncate(size int) int {
	if size < 2 {
		return size
	}
	frac := p.TruncateFraction
	if frac <= 0 {
		frac = DefaultTruncateFraction
	}
	return min(max(int(float64(size)*frac), 1), size-1)
}

// decide is the pure fault function: given a stream position (seq) and the
// length of the current consecutive-fault run, it returns the injected mode
// ("" for a clean request) and the updated run length. Injector and Replay
// both fold this same function, which is what makes the journal provable.
func (p *Policy) decide(key string, kind Kind, seq uint64, run int) (Mode, int) {
	spec, ok := p.Endpoints[kind]
	if !ok || spec.Rate <= 0 {
		return "", 0
	}
	// The fault ceiling: after MaxConsecutive straight faults the stream is
	// forced a clean request, bounding how much adversity any single wire
	// operation can meet.
	if run >= p.maxConsecutive() {
		return "", 0
	}
	h := p.hash(key, kind, seq)
	if float64(h>>11)/(1<<53) >= spec.Rate {
		return "", 0
	}
	modes := spec.Modes
	if len(modes) == 0 {
		modes = DefaultModes(kind)
	}
	return modes[hashx.Mix64(h)%uint64(len(modes))], run + 1
}

// hash folds (seed, key, kind, seq) into one well-mixed draw.
func (p *Policy) hash(key string, kind Kind, seq uint64) uint64 {
	f := hashx.FNV1aFrom(hashx.FNV1aFrom(hashx.FNV1a(key), "\x00"), string(kind))
	return hashx.Mix64(p.Seed ^ hashx.Mix64(f) ^ hashx.Mix64(seq*hashx.Gamma+1))
}

// Replay recomputes the first n decisions of one (key, kind) stream from
// the seed alone: element i is the mode injected at sequence i ("" for
// clean). Tests replay the injector's journal with it to prove every fault
// a run saw is reproducible.
func (p *Policy) Replay(key string, kind Kind, n uint64) []Mode {
	out := make([]Mode, n)
	run := 0
	for seq := uint64(0); seq < n; seq++ {
		out[seq], run = p.decide(key, kind, seq, run)
	}
	return out
}

// Stats is the injector's fault ledger, reported under origin /stats and
// reconciled exactly against the clients' survived-fault counters.
type Stats struct {
	// Total is the number of injected faults across all kinds.
	Total int64 `json:"total"`
	// ByKind counts injected faults per endpoint kind.
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	// ByMode counts injected faults per failure mode.
	ByMode map[string]int64 `json:"by_mode,omitempty"`
	// JournalDropped counts faults evicted from the bounded replay journal
	// (0 in any run small enough to reconcile).
	JournalDropped int64 `json:"journal_dropped,omitempty"`
}

// Event is one journaled fault: stream identity, position, and mode —
// everything Replay needs to prove it again from the seed.
type Event struct {
	Key  string `json:"key"`
	Kind Kind   `json:"kind"`
	Seq  uint64 `json:"seq"`
	Mode Mode   `json:"mode"`
}

// journalCap bounds the replay journal; far beyond any reconciled run.
const journalCap = 1 << 16

type streamKey struct {
	key  string
	kind Kind
}

type streamState struct {
	seq uint64
	run int
}

// Injector evaluates a Policy request by request, keeping per-stream
// sequence state, the fault ledger, and the replay journal.
type Injector struct {
	policy Policy

	mu       sync.Mutex
	streams  map[streamKey]*streamState
	byKind   map[string]int64
	byMode   map[string]int64
	total    int64
	dropped  int64
	journal  []Event
	observer func(Event)
}

// NewInjector validates p and returns an injector for it.
func NewInjector(p Policy) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		policy:  p,
		streams: make(map[streamKey]*streamState),
		byKind:  make(map[string]int64),
		byMode:  make(map[string]int64),
	}, nil
}

// Policy returns the injector's (validated) policy.
func (in *Injector) Policy() Policy { return in.policy }

// SetObserver registers a callback invoked for every injected fault, with
// the same Event the journal records — the event plane's mirror hook. The
// callback runs on the request path under the injector's mutex, so it must
// be non-blocking and cheap (a ring emit qualifies). Call before serving.
func (in *Injector) SetObserver(fn func(Event)) {
	in.mu.Lock()
	in.observer = fn
	in.mu.Unlock()
}

// Decide advances the (key, kind) stream one position and returns the fault
// mode to inject, "" for a clean request. Faults are ledgered and
// journaled here, atomically with the decision.
func (in *Injector) Decide(key string, kind Kind) Mode {
	if key == "" {
		key = anonKey
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	sk := streamKey{key, kind}
	st := in.streams[sk]
	if st == nil {
		st = &streamState{}
		in.streams[sk] = st
	}
	mode, run := in.policy.decide(key, kind, st.seq, st.run)
	seq := st.seq
	st.seq++
	st.run = run
	if mode == "" {
		return ""
	}
	in.total++
	in.byKind[string(kind)]++
	in.byMode[string(mode)]++
	if len(in.journal) < journalCap {
		in.journal = append(in.journal, Event{Key: key, Kind: kind, Seq: seq, Mode: mode})
	} else {
		in.dropped++
	}
	if in.observer != nil {
		in.observer(Event{Key: key, Kind: kind, Seq: seq, Mode: mode})
	}
	return mode
}

// Stats snapshots the fault ledger.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := Stats{Total: in.total, JournalDropped: in.dropped}
	if len(in.byKind) > 0 {
		s.ByKind = make(map[string]int64, len(in.byKind))
		for k, v := range in.byKind {
			s.ByKind[k] = v
		}
	}
	if len(in.byMode) > 0 {
		s.ByMode = make(map[string]int64, len(in.byMode))
		for k, v := range in.byMode {
			s.ByMode[k] = v
		}
	}
	return s
}

// Journal returns a copy of the replay journal, in injection order.
func (in *Injector) Journal() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.journal))
	copy(out, in.journal)
	return out
}
