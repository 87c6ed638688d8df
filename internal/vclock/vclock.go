// Package vclock provides the timing plane behind every sleep in the
// harness: a Clock interface with a wall-clock implementation (Real) and a
// discrete-event simulated one (Virtual).
//
// Real is wall time — Now is monotonic wall time since the clock was built
// and Sleep parks the goroutine for the requested duration. It is what an
// origin or a client runs on unless told otherwise (cmd/dashserver,
// cmd/dashclient, the e2e suites over TCP); a fleet always runs on Virtual.
//
// Virtual never waits. Sleepers park in a min-heap keyed by virtual
// deadline, and the clock jumps straight to the earliest deadline — but
// only at quiescence: when every registered activity unit is blocked in
// Sleep (or has deregistered via Exit). That rule is what keeps N
// goroutines' interleavings causally ordered without any wall-clock
// passing: as long as anything is still runnable, virtual "now" is frozen,
// so a runnable goroutine can never observe time that passed "while it was
// thinking".
//
// The participant contract: every goroutine whose progress must hold time
// still brackets its runnable spans with Enter/Exit (or runs on behalf of
// one that did). Sleep atomically converts a unit from runnable to parked
// and back, so the accounting is exact. Work done downstream of a
// registered unit — an HTTP handler serving a registered client's request,
// say — needs no registration of its own: the client's +1 covers the whole
// synchronous call chain, and when the handler itself calls Sleep (a
// shaper throttle, a chaos stall), that releases the unit just as a
// client-side sleep would.
package vclock

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"sensei/internal/par"
)

// Clock is the timing plane: everything in the harness that sleeps or
// timestamps does it through one of these.
//
// Now is the clock's monotonic reading, as a duration since the clock's
// epoch (construction). Sleep parks the caller for d of the clock's time
// and reports whether the sleep completed (false: ctx was canceled first),
// mirroring par.Sleep. Enter and Exit bracket a registered activity unit —
// a span during which the caller is runnable and virtual time must not
// advance. Real clocks ignore them.
type Clock interface {
	Now() time.Duration
	Sleep(ctx context.Context, d time.Duration) bool
	Enter()
	Exit()
}

// Real is the wall-clock Clock: Now is time since construction, Sleep is
// par.Sleep, and registration is a no-op (the scheduler is the operating
// system's — nothing gates time).
type Real struct {
	epoch time.Time
}

// NewReal returns a wall-clock Clock with its epoch at the moment of the
// call.
func NewReal() *Real {
	return &Real{epoch: time.Now()}
}

// Now returns wall time elapsed since the clock was built.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Sleep parks the caller for d of wall time; false means ctx fired first.
func (r *Real) Sleep(ctx context.Context, d time.Duration) bool {
	return par.Sleep(ctx, d)
}

// Enter is a no-op on the wall clock.
func (r *Real) Enter() {}

// Exit is a no-op on the wall clock.
func (r *Real) Exit() {}

// sleeper is one parked goroutine: its virtual deadline, a FIFO tiebreak
// sequence so equal deadlines wake in park order, its wake channel, and
// its heap index (for O(log n) removal on ctx cancellation). fired flips
// when the waker pops it — the cancel path uses it to tell "already woken"
// (the waker did the active++ on our behalf) from "still parked".
//
// Sleepers are recycled through sleepers, so a steady-state Sleep
// allocates nothing. The wake channel holds one token: the waker sends
// (never closes), and whoever returns a sleeper to the pool has first
// received the token if one was sent, so a pooled channel is always empty.
type sleeper struct {
	deadline time.Duration
	seq      uint64
	ch       chan struct{}
	idx      int
	fired    bool
}

var sleepers = sync.Pool{New: func() any { return &sleeper{ch: make(chan struct{}, 1)} }}

// sleepHeap is a min-heap of parked sleepers ordered by (deadline, seq).
type sleepHeap []*sleeper

func (h sleepHeap) Len() int { return len(h) }
func (h sleepHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h sleepHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *sleepHeap) Push(x any) {
	s := x.(*sleeper)
	s.idx = len(*h)
	*h = append(*h, s)
}
func (h *sleepHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.idx = -1
	*h = old[:n-1]
	return s
}

// Virtual is the discrete-event Clock. It keeps a single invariant
// counter: active = registered activity units not currently parked in
// Sleep. Enter increments it; Exit and Sleep decrement it; waking a
// sleeper re-increments it (before its channel is signaled, so the count
// never dips while a wake is in flight). Whenever active hits zero and
// sleepers are parked, now jumps to the earliest deadline and every sleeper
// due at that instant wakes together. With the heap empty too, time simply
// freezes until the next Enter — an idle simulation does not run away.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration
	active int
	seq    uint64
	heap   sleepHeap
}

// NewVirtual returns a simulated Clock at time zero with no participants.
func NewVirtual() *Virtual {
	return &Virtual{}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Enter registers one activity unit: virtual time will not advance until
// it parks in Sleep or calls Exit.
func (v *Virtual) Enter() {
	v.mu.Lock()
	v.active++
	v.mu.Unlock()
}

// Exit deregisters one activity unit and, if that made the clock
// quiescent, advances time to the next deadline.
func (v *Virtual) Exit() {
	v.mu.Lock()
	v.active--
	if v.active < 0 {
		v.mu.Unlock()
		panic("vclock: Exit without matching Enter")
	}
	v.maybeAdvance()
	v.mu.Unlock()
}

// Sleep parks the calling activity unit until virtual time reaches
// now+d, or ctx is canceled, whichever the simulation hits first. It
// returns true when the full duration elapsed (matching par.Sleep,
// including d <= 0 returning ctx.Err() == nil immediately). Calling Sleep
// from a goroutine that is not inside an Enter/Exit bracket (or downstream
// of one) is a contract violation and panics: an unregistered sleeper
// would let time advance past runnable work. A sleep that the clock
// completes while parking it (the caller was the last runnable unit and
// holds the earliest deadline) returns true without consulting ctx.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	v.mu.Lock()
	if v.active <= 0 {
		v.mu.Unlock()
		panic("vclock: Sleep outside a registered activity (Enter/Exit bracket missing)")
	}
	s := sleepers.Get().(*sleeper)
	s.deadline, s.seq, s.fired = v.now+d, v.seq, false
	v.seq++
	heap.Push(&v.heap, s)
	v.active--
	v.maybeAdvance()
	if s.fired {
		// The caller was the last runnable unit and its own deadline was
		// the earliest: the advance woke it before it parked. The token is
		// already in the channel, so take it here and skip the select —
		// ctx.Done would lazily allocate a cancelable context's channel
		// for a wait that never happens.
		<-s.ch
		v.mu.Unlock()
		sleepers.Put(s)
		return true
	}
	v.mu.Unlock()

	select {
	case <-s.ch:
		sleepers.Put(s)
		return true
	case <-ctx.Done():
	}
	// Canceled — but the waker may have fired concurrently. Settle under
	// the lock: fired means the waker already moved our +1 back to active
	// and the sleep is complete (its token was sent under this lock, so it
	// is there to take); otherwise unpark ourselves.
	v.mu.Lock()
	defer v.mu.Unlock()
	defer sleepers.Put(s)
	if s.fired {
		<-s.ch
		return true
	}
	heap.Remove(&v.heap, s.idx)
	v.active++
	return false
}

// maybeAdvance jumps virtual time to the earliest parked deadline when the
// clock is quiescent, waking every sleeper due at the new now. Waking
// moves each sleeper's unit back into active *before* its channel is
// signaled, so between the advance and the goroutine actually resuming the
// clock already counts it runnable. Caller must hold v.mu.
func (v *Virtual) maybeAdvance() {
	for v.active == 0 && len(v.heap) > 0 {
		v.now = v.heap[0].deadline
		for len(v.heap) > 0 && v.heap[0].deadline <= v.now {
			s := heap.Pop(&v.heap).(*sleeper)
			s.fired = true
			v.active++
			s.ch <- struct{}{}
		}
	}
}
