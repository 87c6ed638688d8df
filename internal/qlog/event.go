// Package qlog is the session event plane: qlog-style structured tracing
// for every decision and wire call the stack makes, cheap enough to stay on
// in production-shaped runs. Each session owns a bounded lock-free ring of
// typed events (Ring); emitters on the hot path append without blocking —
// a full ring drops the event and counts the drop, it never stalls a
// segment — and drainers consume incrementally (GET /events?sid=&since= on
// the origin and router, or in-process collection by the fleet harness).
// Process-wide aggregates live in Metrics: cache-line-padded atomic
// counters and fixed-boundary histograms rendered as Prometheus text by a
// zero-alloc serving path (GET /metrics).
//
// Timestamps come from whatever vclock.Clock the emitter runs on, so a
// virtual-time fleet traces in simulated time and the traces reconcile
// exactly against the run's ledgers: per-session event tallies are a third
// independent witness alongside the client ledgers and origin /stats.
package qlog

import (
	"strconv"
	"time"
)

// Kind is the event taxonomy — every decision or wire interaction a
// session makes maps to exactly one kind. The set is closed on purpose:
// reconciliation counts events per kind against the run's ledgers, so an
// emitter inventing ad-hoc kinds would break the witness contract.
type Kind uint8

// Event kinds. Client-side emitters produce the session lifecycle,
// decision, download, stall, adoption, resilience and rating kinds;
// origin-side mirrors produce the Origin* kinds on its own clock.
const (
	KindInvalid Kind = iota

	// Session lifecycle.
	KindSessionJoin  // Detail: video name; Epoch: starting weight epoch
	KindSessionLeave // Bytes: session bytes; Extra: chunks rendered

	// ABR decision. Rung is the chosen rung, Epoch the weight epoch the
	// decision ran under, Extra the buffer occupancy (ns) going in, Wire
	// the wall-clock decision latency, Tput the predicted pre-stall (s).
	KindDecision

	// Chunk download lifecycle. Start carries the expected Bytes; Done
	// carries delivered Bytes, Wire/Virt durations and the Tput sample
	// (bps). Progress records a partial delivery that did NOT complete
	// (truncated or errored attempt) with the bytes that still landed, so
	// summing Done+Progress bytes reproduces the wire ledger exactly.
	KindChunkStart
	KindChunkProgress
	KindChunkDone

	// Stalls. Begin's Extra is the predicted stall (ns); End's Virt is the
	// realized stall duration (ns of session virtual time).
	KindStallBegin
	KindStallEnd

	// Buffer occupancy sample after a chunk lands: Extra is the buffer
	// level (ns of playback).
	KindBufferSample

	// Weight-epoch adoption: the session observed a newer epoch beacon and
	// re-fetched weights. Epoch is the adopted epoch.
	KindEpochAdopted

	// Chaos resilience. FaultSurvived's Detail is the chaos kind token and
	// Bytes any partial delivery; Retry's Extra is the attempt number;
	// Backoff's Virt is the backoff sleep (ns).
	KindFaultSurvived
	KindRetry
	KindBackoff

	// Degradation-ladder step: Detail names the rung of the ladder taken
	// ("segment-fallback", "stale-weights", "rating-dropped").
	KindDegradation

	// Rating feedback: posted is the client-side wire call; accepted and
	// quarantined record the origin's verdict. Chunk/Epoch stamp the rated
	// chunk and the epoch the rating was made under.
	KindRatingPosted
	KindRatingAccepted
	KindRatingQuarantined

	// Origin-side mirrors, emitted on the origin's clock into the
	// session's server-side ring: join/leave from the session control
	// plane, segment from the serving path (Bytes delivered, Wire serve
	// duration), fault from the chaos injector (Detail: kind token, Extra:
	// per-stream fault sequence), rating verdicts from the ingest plane.
	KindOriginJoin
	KindOriginLeave
	KindOriginSegment
	KindOriginFaultInjected
	KindOriginRatingAccepted
	KindOriginRatingQuarantined

	numKinds
)

// kindNames are the wire tokens — fixed, lower-snake, stable across PRs.
var kindNames = [numKinds]string{
	KindInvalid:                 "invalid",
	KindSessionJoin:             "session_join",
	KindSessionLeave:            "session_leave",
	KindDecision:                "decision",
	KindChunkStart:              "chunk_start",
	KindChunkProgress:           "chunk_progress",
	KindChunkDone:               "chunk_done",
	KindStallBegin:              "stall_begin",
	KindStallEnd:                "stall_end",
	KindBufferSample:            "buffer_sample",
	KindEpochAdopted:            "epoch_adopted",
	KindFaultSurvived:           "fault_survived",
	KindRetry:                   "retry",
	KindBackoff:                 "backoff",
	KindDegradation:             "degradation",
	KindRatingPosted:            "rating_posted",
	KindRatingAccepted:          "rating_accepted",
	KindRatingQuarantined:       "rating_quarantined",
	KindOriginJoin:              "origin_join",
	KindOriginLeave:             "origin_leave",
	KindOriginSegment:           "origin_segment",
	KindOriginFaultInjected:     "origin_fault_injected",
	KindOriginRatingAccepted:    "origin_rating_accepted",
	KindOriginRatingQuarantined: "origin_rating_quarantined",
}

// NumKinds is the size of the closed taxonomy (for per-kind tallies).
const NumKinds = int(numKinds)

// String returns the event kind's wire token.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one trace record. It is a fixed-shape value type: appending one
// into a ring copies it into a slot, so the hot path allocates nothing per
// event (only a ring's slot blocks, once each, see Ring). Detail must be a constant or interned string (the emitters
// only ever pass literals and pre-built names) — building a fresh string
// per event would defeat the zero-alloc contract.
type Event struct {
	// Seq is the ring-assigned monotonic sequence number (1-based). The
	// /events drain's since= cursor filters on it, so re-drains are
	// idempotent across retries.
	Seq uint64 `json:"seq"`
	// T is the emitting clock's reading (duration since that clock's
	// epoch). Virtual-time runs trace in simulated time.
	T    time.Duration `json:"t"`
	Kind Kind          `json:"kind"`

	Chunk int32 `json:"chunk,omitempty"`
	Rung  int32 `json:"rung,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// Wire is a wall-clock duration (download or serve latency); Virt is
	// the matching session-virtual duration.
	Wire time.Duration `json:"wire,omitempty"`
	Virt time.Duration `json:"virt,omitempty"`
	// Tput is a throughput sample in bits per second (chunk_done) or a
	// kind-specific float (decision: predicted pre-stall seconds).
	Tput float64 `json:"tput,omitempty"`
	// Epoch is the weight epoch in force for the event.
	Epoch uint64 `json:"epoch,omitempty"`
	// Extra is a kind-specific scalar (buffer ns, attempt number, fault
	// sequence) — see the Kind constants for each kind's meaning.
	Extra int64 `json:"extra,omitempty"`
	// Detail is a kind-specific token (video name, chaos kind, ladder
	// step). Always a constant or interned string.
	Detail string `json:"detail,omitempty"`
}

// AppendJSON renders the event as one JSON object (no trailing newline)
// appended to b — the /events JSON-lines encoder. Hand-rolled over
// strconv.Append* so a drain never allocates per event beyond the caller's
// buffer growth; omitempty semantics match the struct tags.
func (e *Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(e.T), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Chunk != 0 {
		b = append(b, `,"chunk":`...)
		b = strconv.AppendInt(b, int64(e.Chunk), 10)
	}
	if e.Rung != 0 {
		b = append(b, `,"rung":`...)
		b = strconv.AppendInt(b, int64(e.Rung), 10)
	}
	if e.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, e.Bytes, 10)
	}
	if e.Wire != 0 {
		b = append(b, `,"wire":`...)
		b = strconv.AppendInt(b, int64(e.Wire), 10)
	}
	if e.Virt != 0 {
		b = append(b, `,"virt":`...)
		b = strconv.AppendInt(b, int64(e.Virt), 10)
	}
	if e.Tput != 0 {
		b = append(b, `,"tput":`...)
		b = strconv.AppendFloat(b, e.Tput, 'g', -1, 64)
	}
	if e.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, e.Epoch, 10)
	}
	if e.Extra != 0 {
		b = append(b, `,"extra":`...)
		b = strconv.AppendInt(b, e.Extra, 10)
	}
	if e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = strconv.AppendQuote(b, e.Detail)
	}
	return append(b, '}')
}
