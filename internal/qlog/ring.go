package qlog

import (
	"sync/atomic"
)

// DefaultRingCapacity is the per-session ring size when a config leaves it
// zero: big enough that a fleet session's whole excerpt traces without
// drops. It is a cap, not a cost: a ring allocates its slots in blocks of
// ringBlockSlots as emits reach them, so a session's memory follows what it
// emits (a few hundred events for a chaos fleet session, 5 blocks).
const DefaultRingCapacity = 1 << 10

// ringBlockSlots is how many slots one lazily allocated block holds: 64
// slots of 128 bytes, 8 KiB. A ring smaller than a block still gets one
// whole block.
const ringBlockSlots = 64

// ringSlot is one bounded-queue cell: a Vyukov-style per-slot turn counter
// plus the event payload. The turn sequencing makes producers and the
// drainer coordinate per slot instead of on a shared lock: a producer may
// write a slot only when turn == pos (the slot is empty for lap pos/cap),
// a consumer may read it only when turn == pos+1. turn is stored minus the
// slot's ring index, so a freshly allocated (zeroed) block already reads
// "empty for lap 0" in every slot. The trailing pad keeps adjacent slots'
// turn words off one cache line so concurrent emitters don't false-share.
type ringSlot struct {
	turn atomic.Uint64
	ev   Event
	_    [24]byte
}

// ringBlock is the unit of slot storage.
type ringBlock [ringBlockSlots]ringSlot

// Ring is a bounded lock-free MPMC event ring with drop-on-full
// semantics — the event plane's only buffering primitive. Emitters call
// Emit from the hot path: it never blocks; when the ring is full the event
// is counted in Drops and discarded (observability must never back-pressure
// a segment stream). Drainers call Drain (or DrainSince, or DrainTally) to
// consume in emit order.
//
// Slot storage is allocated lazily, one block at a time, the first time an
// emit reaches the block; a block is never freed or replaced, so a ring
// makes at most Cap()/64 allocations (one for a ring under 64) after
// NewRing, all on its first lap, and none after.
//
// Every successfully emitted event gets a ring-monotonic 1-based Seq: its
// position in the ring plus one, so drains deliver in Seq order even with
// concurrent emitters. Drains are resumable: a drainer that remembers the
// last Seq it saw can ask for strictly-later events and double-delivery is
// filtered even if the wire retried.
type Ring struct {
	mask   uint64
	blocks []atomic.Pointer[ringBlock]

	_     [64]byte // keep head/tail off the blocks header's line
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64
	_     [56]byte
	drops atomic.Int64
	_     [56]byte
}

// NewRing builds a ring holding capacity events (rounded up to a power of
// two; <= 0 selects DefaultRingCapacity). It allocates no slot storage.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	nBlocks := (n + ringBlockSlots - 1) / ringBlockSlots
	return &Ring{mask: uint64(n - 1), blocks: make([]atomic.Pointer[ringBlock], nBlocks)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return int(r.mask) + 1 }

// slot returns the cell at ring index i, or nil when no emit has reached
// its block yet (every slot in it is empty for lap 0).
func (r *Ring) slot(i uint64) *ringSlot {
	b := r.blocks[i/ringBlockSlots].Load()
	if b == nil {
		return nil
	}
	return &b[i%ringBlockSlots]
}

// install gives the block holding ring index i its storage and returns the
// cell at i. Racing emitters may each allocate; the CAS loser drops its
// block and uses the winner's.
func (r *Ring) install(i uint64) *ringSlot {
	k := i / ringBlockSlots
	r.blocks[k].CompareAndSwap(nil, new(ringBlock))
	return &r.blocks[k].Load()[i%ringBlockSlots]
}

// Emit appends ev (stamping ev.Seq) and reports whether it was stored.
// False means the ring was full: the event was dropped and counted. Safe
// for any number of concurrent emitters; never blocks. It allocates only
// when it is the first emit to reach a block (see Ring).
func (r *Ring) Emit(ev Event) bool {
	pos := r.head.Load()
	for {
		i := pos & r.mask
		slot := r.slot(i)
		if slot == nil {
			slot = r.install(i)
		}
		turn := slot.turn.Load() + i
		switch diff := int64(turn) - int64(pos); {
		case diff == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				ev.Seq = pos + 1
				slot.ev = ev
				slot.turn.Store(pos + 1 - i)
				return true
			}
			pos = r.head.Load()
		case diff < 0:
			// The slot still holds an event from the previous lap: the ring
			// is full. Drop — the hot path must not wait for the drainer.
			r.drops.Add(1)
			return false
		default:
			// Another producer claimed pos and is mid-write; refetch.
			pos = r.head.Load()
		}
	}
}

// Drops returns how many events were discarded on a full ring. A nonzero
// drop count voids the reconciliation-witness contract for this ring (the
// trace is no longer a complete record) — reconcilers must check it.
func (r *Ring) Drops() int64 { return r.drops.Load() }

// Drain consumes every event currently in the ring, appending them in
// emit order to buf, and returns the extended slice. Events emitted while
// the drain runs may or may not be included; they are never lost (a
// subsequent Drain picks them up). Safe for concurrent drainers, though
// one drainer per ring is the intended shape.
func (r *Ring) Drain(buf []Event) []Event {
	for {
		ev, ok := r.pop()
		if !ok {
			return buf
		}
		buf = append(buf, ev)
	}
}

// DrainSince is Drain filtered by the resumable cursor: only events with
// Seq > since are appended. Earlier events are still consumed (the ring
// frees their slots) — the cursor exists to make wire-level re-drains
// idempotent, not to replay history.
func (r *Ring) DrainSince(since uint64, buf []Event) []Event {
	for {
		ev, ok := r.pop()
		if !ok {
			return buf
		}
		if ev.Seq > since {
			buf = append(buf, ev)
		}
	}
}

// DrainTally consumes every event currently in the ring into a Tally —
// TallyOf(r.Drain(nil), r.Drops()) without building the trace.
func (r *Ring) DrainTally() Tally {
	var t Tally
	for {
		ev, ok := r.pop()
		if !ok {
			break
		}
		t.Add(&ev)
	}
	t.Drops = r.Drops()
	return t
}

// pop removes the oldest event, if any.
func (r *Ring) pop() (Event, bool) {
	pos := r.tail.Load()
	for {
		i := pos & r.mask
		slot := r.slot(i)
		if slot == nil {
			// No emit ever reached this block: nothing to consume.
			return Event{}, false
		}
		turn := slot.turn.Load() + i
		switch diff := int64(turn) - int64(pos+1); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				ev := slot.ev
				slot.turn.Store(pos + r.mask + 1 - i)
				return ev, true
			}
			pos = r.tail.Load()
		case diff < 0:
			// Slot not yet written for this lap: ring is empty (or a
			// producer claimed it and is mid-write; either way, nothing
			// consumable at the tail right now).
			return Event{}, false
		default:
			pos = r.tail.Load()
		}
	}
}

// Tally is a per-kind event count plus the ring's drop ledger — the shape
// reconciliation consumes. Summing a tally's kind counters against the
// session's client ledger and the origin's /stats is the third-witness
// check; Drops must be zero for the witness to be admissible.
type Tally struct {
	Counts [NumKinds]int64 `json:"counts"`
	Drops  int64           `json:"drops"`
	Bytes  int64           `json:"bytes"` // sum of chunk_done + chunk_progress bytes
}

// Count returns the tally's count for one kind.
func (t *Tally) Count(k Kind) int64 {
	if int(k) >= NumKinds {
		return 0
	}
	return t.Counts[k]
}

// Add folds one event into the tally.
func (t *Tally) Add(ev *Event) {
	if int(ev.Kind) < NumKinds {
		t.Counts[ev.Kind]++
	}
	if ev.Kind == KindChunkDone || ev.Kind == KindChunkProgress {
		t.Bytes += ev.Bytes
	}
}

// TallyOf folds a drained trace plus the ring's drop count into a Tally.
func TallyOf(events []Event, drops int64) Tally {
	t := Tally{Drops: drops}
	for i := range events {
		t.Add(&events[i])
	}
	return t
}
