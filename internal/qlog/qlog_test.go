package qlog

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingFIFO pins the single-producer contract: events come out in emit
// order with dense 1-based sequence numbers.
func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		if !r.Emit(Event{Kind: KindDecision, Chunk: int32(i)}) {
			t.Fatalf("emit %d refused below capacity", i)
		}
	}
	got := r.Drain(nil)
	if len(got) != 5 {
		t.Fatalf("drained %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) || ev.Chunk != int32(i) {
			t.Fatalf("event %d: seq %d chunk %d, want seq %d chunk %d", i, ev.Seq, ev.Chunk, i+1, i)
		}
	}
	if r.Drops() != 0 {
		t.Fatalf("drops %d, want 0", r.Drops())
	}
}

// TestRingCapacityRounds pins power-of-two rounding and the default.
func TestRingCapacityRounds(t *testing.T) {
	if got := NewRing(100).Cap(); got != 128 {
		t.Fatalf("cap(100) rounded to %d, want 128", got)
	}
	if got := NewRing(0).Cap(); got != DefaultRingCapacity {
		t.Fatalf("cap(0) = %d, want %d", got, DefaultRingCapacity)
	}
}

// TestRingOverflowExactDrops is the overflow contract: with no drainer, a
// ring of capacity C accepts exactly C events and drops — counting each
// one — everything past that, without ever blocking the emitter.
func TestRingOverflowExactDrops(t *testing.T) {
	const capacity = 16
	r := NewRing(capacity)
	const total = 100
	stored := 0
	for i := 0; i < total; i++ {
		if r.Emit(Event{Kind: KindChunkDone, Bytes: 1}) {
			stored++
		}
	}
	if stored != capacity {
		t.Fatalf("stored %d events, want exactly capacity %d", stored, capacity)
	}
	if r.Drops() != total-capacity {
		t.Fatalf("drops %d, want %d", r.Drops(), total-capacity)
	}
	// Draining frees the slots: the ring accepts again.
	if got := len(r.Drain(nil)); got != capacity {
		t.Fatalf("drained %d, want %d", got, capacity)
	}
	if !r.Emit(Event{Kind: KindChunkDone}) {
		t.Fatal("emit refused after drain freed the ring")
	}
}

// TestRingSlowDrainerFastEmitters is the satellite's race gate: several
// fast emitters against one deliberately slow drainer. The accounting must
// stay exact — stored + dropped == attempted, every stored event is
// delivered exactly once — and no emitter ever blocks on the drainer
// (bounded total work proves it terminates). Run under -race this is the
// ring's publication-safety smoke.
func TestRingSlowDrainerFastEmitters(t *testing.T) {
	const (
		emitters   = 4
		perEmitter = 5000
	)
	r := NewRing(64)
	var stored atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				if r.Emit(Event{Kind: KindChunkDone, Chunk: int32(i), Extra: int64(e)}) {
					stored.Add(1)
				}
			}
		}(e)
	}

	var drained int64
	seen := map[uint64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Event, 0, 64)
		for {
			buf = r.Drain(buf[:0])
			for _, ev := range buf {
				if seen[ev.Seq] {
					t.Errorf("event seq %d delivered twice", ev.Seq)
					return
				}
				seen[ev.Seq] = true
			}
			drained += int64(len(buf))
			select {
			case <-time.After(time.Millisecond): // the slow part
			default:
			}
			if drained >= stored.Load() && emittersDone(&wg) {
				return
			}
		}
	}()

	wg.Wait()
	<-done
	// Final sweep for anything emitted after the drainer's last lap.
	for _, ev := range r.Drain(nil) {
		if seen[ev.Seq] {
			t.Fatalf("event seq %d delivered twice", ev.Seq)
		}
		seen[ev.Seq] = true
		drained++
	}

	attempted := int64(emitters * perEmitter)
	if got := stored.Load() + r.Drops(); got != attempted {
		t.Fatalf("stored %d + dropped %d = %d, want %d attempted", stored.Load(), r.Drops(), got, attempted)
	}
	if drained != stored.Load() {
		t.Fatalf("drained %d events, want every stored one (%d)", drained, stored.Load())
	}
	if int64(r.head.Load()) != stored.Load() {
		t.Fatalf("head %d, want %d", r.head.Load(), stored.Load())
	}
}

// emittersDone reports whether wg has drained without blocking the caller.
func emittersDone(wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestRingBlockAllocs pins the ring's allocation contract as exact counts
// of runtime.MemStats.Mallocs (AllocsPerRun truncates its average, so it
// cannot tell 16 allocations in 1000 emits from none): the first lap of a
// DefaultRingCapacity ring installs exactly Cap()/64 = 16 blocks, and
// every later lap, drains included, allocates nothing. The count is
// process-wide, so the laps run with the collector off and on one P: a GC
// cycle inside a lap allocates for itself, and so does the runtime when it
// starts an OS thread for an idle P (its m and g structs are heap
// objects). With only the collector off, about one run in 3 000 at
// GOMAXPROCS=2 read five such objects more.
func TestRingBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRing(DefaultRingCapacity)
	var before, after runtime.MemStats
	buf := make([]Event, 0, r.Cap())
	ev := Event{Kind: KindChunkDone, Bytes: 1 << 20, Detail: "segment"}
	for lap := 0; lap < 4; lap++ {
		runtime.ReadMemStats(&before)
		stored := 0
		for i := 0; i < r.Cap(); i++ {
			if r.Emit(ev) {
				stored++
			}
		}
		buf = r.Drain(buf[:0])
		runtime.ReadMemStats(&after)
		if stored != r.Cap() || len(buf) != r.Cap() {
			t.Fatalf("lap %d: stored %d, drained %d, want %d each", lap, stored, len(buf), r.Cap())
		}
		want := uint64(0)
		if lap == 0 {
			want = uint64(r.Cap() / ringBlockSlots)
		}
		if got := after.Mallocs - before.Mallocs; got != want {
			t.Fatalf("lap %d allocated %d objects, want %d", lap, got, want)
		}
	}
}

// TestRingSmallerThanABlock: a cap-4 ring lives in the first four slots of
// one block and still wraps: every lap stores exactly four events, drops
// the fifth, and drains the four in order with dense Seqs.
func TestRingSmallerThanABlock(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("cap %d, want 4", r.Cap())
	}
	const laps = 5
	for lap := 0; lap < laps; lap++ {
		for i := 0; i < 4; i++ {
			if !r.Emit(Event{Kind: KindRetry, Extra: int64(4*lap + i)}) {
				t.Fatalf("lap %d: emit %d refused below capacity", lap, i)
			}
		}
		if r.Emit(Event{Kind: KindRetry}) {
			t.Fatalf("lap %d: a fifth event was stored in a cap-4 ring", lap)
		}
		got := r.Drain(nil)
		if len(got) != 4 {
			t.Fatalf("lap %d: drained %d events, want 4", lap, len(got))
		}
		for i, ev := range got {
			if n := 4*lap + i; ev.Seq != uint64(n+1) || ev.Extra != int64(n) {
				t.Fatalf("lap %d event %d: seq %d extra %d, want seq %d extra %d", lap, i, ev.Seq, ev.Extra, n+1, n)
			}
		}
	}
	if r.Drops() != laps {
		t.Fatalf("drops %d, want %d", r.Drops(), laps)
	}
}

// TestDrainUntouchedBlocks: a drain that reaches a block no emit has
// touched finds it empty — on a fresh ring, and at the second block after
// the first was filled and drained — through every drain method, and
// installs nothing.
func TestDrainUntouchedBlocks(t *testing.T) {
	r := NewRing(DefaultRingCapacity)
	check := func(when string) {
		t.Helper()
		if got := r.Drain(nil); len(got) != 0 {
			t.Fatalf("%s: Drain returned %d events", when, len(got))
		}
		if got := r.DrainSince(0, nil); len(got) != 0 {
			t.Fatalf("%s: DrainSince returned %d events", when, len(got))
		}
		if got := r.DrainTally(); got != (Tally{}) {
			t.Fatalf("%s: DrainTally = %+v, want zero", when, got)
		}
	}
	check("fresh ring")
	for i := 0; i < ringBlockSlots; i++ {
		r.Emit(Event{Kind: KindDecision})
	}
	if got := len(r.Drain(nil)); got != ringBlockSlots {
		t.Fatalf("drained %d events, want %d", got, ringBlockSlots)
	}
	check("after the first block")
	for k := 1; k < len(r.blocks); k++ {
		if r.blocks[k].Load() != nil {
			t.Fatalf("block %d was installed without an emit reaching it", k)
		}
	}
}

// TestDrainTallyMatchesTallyOf: folding a ring straight into a Tally
// counts what tallying its drained trace counts.
func TestDrainTallyMatchesTallyOf(t *testing.T) {
	emit := func(r *Ring) {
		for i := 0; i < 100; i++ {
			r.Emit(Event{Kind: Kind(1 + i%(NumKinds-1)), Bytes: int64(i)})
		}
	}
	a, b := NewRing(64), NewRing(64)
	emit(a)
	emit(b)
	want := TallyOf(a.Drain(nil), a.Drops())
	if got := b.DrainTally(); got != want {
		t.Fatalf("DrainTally = %+v\nTallyOf   = %+v", got, want)
	}
	if want.Drops != 36 {
		t.Fatalf("drops %d, want 36", want.Drops)
	}
}

// TestRingConcurrentLapsAcrossBlocks is the lazy storage's race gate:
// four emitters and one drainer run a 256-slot ring (four blocks) through
// more than fifteen laps, so blocks are installed under contention and
// every block boundary is crossed again and again. Each emitter retries a
// dropped event until it has stored its share (or a ring that stores
// nothing has refused it 100 times over). Every stored event is delivered
// exactly once, in Seq order with no gap, with the payload its emitter
// wrote, and stored + dropped equals the attempts.
func TestRingConcurrentLapsAcrossBlocks(t *testing.T) {
	const (
		emitters    = 4
		perEmitter  = 1000
		maxAttempts = 100 * perEmitter
	)
	r := NewRing(256)
	var attempts, stored atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i, n := 0, 0; i < perEmitter && n < maxAttempts; n++ {
				attempts.Add(1)
				if r.Emit(Event{Kind: KindChunkDone, Chunk: int32(e), Extra: int64(i)}) {
					stored.Add(1)
					i++
				} else {
					runtime.Gosched() // let the drainer free a slot
				}
			}
		}(e)
	}
	emitted := make(chan struct{})
	go func() { wg.Wait(); close(emitted) }()

	var last uint64
	var next [emitters]int64
	buf := make([]Event, 0, r.Cap())
	deliver := func() {
		buf = r.Drain(buf[:0])
		for _, ev := range buf {
			if ev.Seq != last+1 {
				t.Fatalf("delivered seq %d after %d", ev.Seq, last)
			}
			last = ev.Seq
			if e := ev.Chunk; ev.Extra != next[e] {
				t.Fatalf("emitter %d: delivered its event %d, want %d", e, ev.Extra, next[e])
			}
			next[ev.Chunk]++
		}
	}
	for done := false; !done; {
		select {
		case <-emitted:
			done = true
		default:
			runtime.Gosched()
		}
		deliver()
	}
	deliver()

	if n := stored.Load(); n != emitters*perEmitter || last != uint64(n) || r.head.Load() != uint64(n) {
		t.Fatalf("stored %d, delivered %d, head %d, want %d each", n, last, r.head.Load(), emitters*perEmitter)
	}
	if got := stored.Load() + r.Drops(); got != attempts.Load() {
		t.Fatalf("stored %d + dropped %d = %d, want %d attempts", stored.Load(), r.Drops(), got, attempts.Load())
	}
}

// TestDrainSince pins the resumable-cursor semantics: a re-drain with the
// last seen Seq never re-delivers, and later events still come through.
func TestDrainSince(t *testing.T) {
	r := NewRing(32)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindRetry})
	}
	first := r.DrainSince(0, nil)
	if len(first) != 10 {
		t.Fatalf("first drain: %d events, want 10", len(first))
	}
	cursor := first[len(first)-1].Seq
	for i := 0; i < 3; i++ {
		r.Emit(Event{Kind: KindBackoff})
	}
	second := r.DrainSince(cursor, nil)
	if len(second) != 3 {
		t.Fatalf("second drain: %d events, want 3", len(second))
	}
	for _, ev := range second {
		if ev.Seq <= cursor || ev.Kind != KindBackoff {
			t.Fatalf("re-delivered or wrong event: seq %d kind %s", ev.Seq, ev.Kind)
		}
	}
}

// TestEmitZeroAlloc prices an emit into a fresh 4096-slot ring, the
// metrics bump included, with AllocsPerRun. The 1001 emits install 16 of
// the ring's lazily allocated blocks, which AllocsPerRun's truncated
// average reads as 0; what it pins is that an emit allocates nothing
// beyond those blocks. TestRingBlockAllocs pins the block count exactly.
func TestEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r := NewRing(1 << 12)
	var m Metrics
	ev := Event{Kind: KindChunkDone, T: time.Second, Chunk: 3, Rung: 2, Bytes: 1 << 20, Detail: "segment"}
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(r, &m, ev)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventJSONRoundTrip checks the hand-rolled encoder against the
// struct's JSON tags via encoding/json decode.
func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{
		Seq: 7, T: 1500 * time.Millisecond, Kind: KindChunkDone,
		Chunk: 12, Rung: 3, Bytes: 123456, Wire: 80 * time.Millisecond,
		Virt: 2 * time.Second, Tput: 2.5e6, Epoch: 4, Extra: 9, Detail: "soccer",
	}
	line := in.AppendJSON(nil)
	var out struct {
		Seq    uint64  `json:"seq"`
		T      int64   `json:"t"`
		Kind   string  `json:"kind"`
		Chunk  int32   `json:"chunk"`
		Rung   int32   `json:"rung"`
		Bytes  int64   `json:"bytes"`
		Wire   int64   `json:"wire"`
		Virt   int64   `json:"virt"`
		Tput   float64 `json:"tput"`
		Epoch  uint64  `json:"epoch"`
		Extra  int64   `json:"extra"`
		Detail string  `json:"detail"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("hand-rolled JSON does not parse: %v\n%s", err, line)
	}
	if out.Seq != in.Seq || out.T != int64(in.T) || out.Kind != in.Kind.String() ||
		out.Chunk != in.Chunk || out.Rung != in.Rung || out.Bytes != in.Bytes ||
		out.Wire != int64(in.Wire) || out.Virt != int64(in.Virt) || out.Tput != in.Tput ||
		out.Epoch != in.Epoch || out.Extra != in.Extra || out.Detail != in.Detail {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestMetricsPrometheusText sanity-checks the exposition: families
// present, cumulative buckets monotone, counts consistent.
func TestMetricsPrometheusText(t *testing.T) {
	var m Metrics
	m.SegmentLatency.Observe(int64(3 * time.Millisecond))
	m.SegmentLatency.Observe(int64(40 * time.Millisecond))
	m.SegmentLatency.Observe(int64(2 * time.Minute)) // lands in +Inf
	m.Retries.Add(5)
	text := string(m.AppendPrometheus(nil))

	for _, want := range []string{
		"# TYPE sensei_segment_latency_seconds histogram",
		`sensei_segment_latency_seconds_bucket{le="+Inf"} 3`,
		"sensei_segment_latency_seconds_count 3",
		"# TYPE sensei_retries_total counter",
		"sensei_retries_total 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if m.SegmentLatency.count.Load() != 3 {
		t.Fatalf("histogram count %d, want 3", m.SegmentLatency.count.Load())
	}
	if got := m.SegmentLatency.sum.Load(); got != int64(3*time.Millisecond+40*time.Millisecond+2*time.Minute) {
		t.Fatalf("histogram sum %d ns", got)
	}
}

// TestTally pins the per-kind fold the reconciler consumes.
func TestTally(t *testing.T) {
	events := []Event{
		{Kind: KindChunkDone, Bytes: 100},
		{Kind: KindChunkDone, Bytes: 200},
		{Kind: KindChunkProgress, Bytes: 50},
		{Kind: KindRetry},
	}
	tally := TallyOf(events, 2)
	if tally.Count(KindChunkDone) != 2 || tally.Count(KindChunkProgress) != 1 || tally.Count(KindRetry) != 1 {
		t.Fatalf("kind counts wrong: %+v", tally.Counts)
	}
	if tally.Bytes != 350 {
		t.Fatalf("bytes %d, want 350", tally.Bytes)
	}
	if tally.Drops != 2 {
		t.Fatalf("drops %d, want 2", tally.Drops)
	}
}

// BenchmarkRingEmit prices one hot-path emit — ring push plus registry
// bump — with the ring drained every lap so every push takes the success
// path. The alloc report reads 0 allocs/op: the ring's 16 blocks are
// installed on its first lap only.
func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(DefaultRingCapacity)
	m := &Metrics{}
	ev := Event{Kind: KindChunkDone, Chunk: 3, Rung: 2, Bytes: 1 << 20}
	buf := make([]Event, 0, DefaultRingCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&(DefaultRingCapacity-1) == DefaultRingCapacity-1 {
			b.StopTimer()
			buf = r.Drain(buf[:0])
			b.StartTimer()
		}
		Emit(r, m, ev)
	}
	_ = buf
	if r.Drops() != 0 {
		b.Fatalf("%d drops on a drained ring", r.Drops())
	}
}
