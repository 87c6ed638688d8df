package vclock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualQuiescenceGate is the core safety property: virtual time must
// not advance while any registered participant is runnable, even with a
// sleeper parked and due. Only when the runnable participant itself parks
// (or exits) may the clock jump.
func TestVirtualQuiescenceGate(t *testing.T) {
	v := NewVirtual()

	// A runnable participant holds time still.
	v.Enter()

	slept := make(chan bool, 1)
	v.Enter()
	go func() {
		slept <- v.Sleep(context.Background(), 10*time.Millisecond)
		v.Exit()
	}()

	// Give the sleeper every chance to park, then verify the clock is
	// still frozen: the first participant never slept or exited.
	deadline := time.After(200 * time.Millisecond)
	for {
		v.mu.Lock()
		parked := len(v.heap) == 1
		v.mu.Unlock()
		if parked {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sleeper never parked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if now := v.Now(); now != 0 {
		t.Fatalf("time advanced to %v while a participant was runnable", now)
	}
	select {
	case <-slept:
		t.Fatal("sleeper woke while another participant was runnable")
	case <-time.After(20 * time.Millisecond):
	}

	// The runnable participant leaves: quiescence, so the clock jumps
	// straight to the sleeper's deadline.
	v.Exit()
	if ok := <-slept; !ok {
		t.Fatal("sleep reported canceled")
	}
	if now := v.Now(); now != 10*time.Millisecond {
		t.Fatalf("Now() = %v after wake, want 10ms", now)
	}
}

// TestVirtualSleepCancel parks a sleeper and cancels its context while
// another participant keeps the clock frozen; the sleep must return false
// without any time passing, and the clock must stay consistent (the
// canceled unit is runnable again, then exits cleanly).
func TestVirtualSleepCancel(t *testing.T) {
	v := NewVirtual()
	v.Enter() // pin time so the sleeper can only leave via cancellation

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	v.Enter()
	go func() {
		ok := v.Sleep(ctx, time.Hour)
		v.Exit() // before the send: the checks below read active after it
		done <- ok
	}()

	// Wait for the park, then cancel.
	for {
		v.mu.Lock()
		parked := len(v.heap) == 1
		v.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if ok := <-done; ok {
		t.Fatal("canceled sleep reported completion")
	}
	if now := v.Now(); now != 0 {
		t.Fatalf("cancellation advanced time to %v", now)
	}
	v.mu.Lock()
	heapLen, active := len(v.heap), v.active
	v.mu.Unlock()
	if heapLen != 0 {
		t.Fatalf("canceled sleeper left %d entries in the heap", heapLen)
	}
	if active != 1 {
		t.Fatalf("active = %d after cancel+exit, want 1 (the pinning unit)", active)
	}
	v.Exit()
}

// TestVirtualZeroAndCanceled pins the par.Sleep-compatible edges: d <= 0
// completes immediately (true on a live ctx, false on a dead one) without
// touching the clock.
func TestVirtualZeroAndCanceled(t *testing.T) {
	v := NewVirtual()
	if !v.Sleep(context.Background(), 0) {
		t.Fatal("zero sleep on live ctx returned false")
	}
	if !v.Sleep(context.Background(), -time.Second) {
		t.Fatal("negative sleep on live ctx returned false")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v.Sleep(ctx, 0) {
		t.Fatal("zero sleep on canceled ctx returned true")
	}
	if v.Now() != 0 {
		t.Fatalf("degenerate sleeps moved time to %v", v.Now())
	}
}

// TestVirtualCoincidentWake parks several sleepers on the same deadline
// plus one later; the coincident group wakes together at its instant and
// the straggler only after, with time stepping exactly deadline-to-
// deadline. Every participant enters before any starts, so no sleeper can
// run its sleeps alone on the clock while the others are unregistered.
func TestVirtualCoincidentWake(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	var atTen, atTwenty atomic.Int32
	for i := 0; i < 4; i++ {
		v.Enter()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !v.Sleep(context.Background(), 10*time.Millisecond) {
				t.Error("10ms sleep canceled")
			}
			if now := v.Now(); now != 10*time.Millisecond {
				t.Errorf("woke at %v, want 10ms", now)
			}
			atTen.Add(1)
			if !v.Sleep(context.Background(), 10*time.Millisecond) {
				t.Error("second sleep canceled")
			}
			if now := v.Now(); now != 20*time.Millisecond {
				t.Errorf("woke at %v, want 20ms", now)
			}
			atTwenty.Add(1)
			v.Exit()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !v.Sleep(context.Background(), 35*time.Millisecond) {
			t.Error("35ms sleep canceled")
		}
		// By the straggler's deadline the whole coincident group has been
		// through both rounds: time passed 10ms and 20ms first.
		if got := atTen.Load(); got != 3 {
			t.Errorf("at 35ms, only %d of 3 sleepers saw 10ms", got)
		}
		if got := atTwenty.Load(); got != 3 {
			t.Errorf("at 35ms, only %d of 3 sleepers saw 20ms", got)
		}
		if now := v.Now(); now != 35*time.Millisecond {
			t.Errorf("straggler woke at %v, want 35ms", now)
		}
		v.Exit()
	}()
	wg.Wait()
	if now := v.Now(); now != 35*time.Millisecond {
		t.Fatalf("final Now() = %v, want 35ms", now)
	}
}

// TestVirtualFreezesWhenIdle: with every participant gone and no sleepers,
// time holds still instead of running away.
func TestVirtualFreezesWhenIdle(t *testing.T) {
	v := NewVirtual()
	v.Enter()
	if !v.Sleep(context.Background(), 5*time.Millisecond) {
		t.Fatal("sleep canceled")
	}
	v.Exit()
	if now := v.Now(); now != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", now)
	}
	// Nothing registered, nothing parked: Now is stable.
	if now := v.Now(); now != 5*time.Millisecond {
		t.Fatalf("idle clock drifted to %v", now)
	}
}

// TestVirtualUnregisteredSleepPanics pins the contract violation loudly:
// sleeping outside an Enter/Exit bracket would let time advance past
// runnable work, so it must panic rather than silently corrupt ordering.
func TestVirtualUnregisteredSleepPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep outside a registered activity did not panic")
		}
	}()
	v.Sleep(context.Background(), time.Millisecond)
}

// TestVirtualExitWithoutEnterPanics pins the symmetric guard.
func TestVirtualExitWithoutEnterPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter did not panic")
		}
	}()
	v.Exit()
}

// TestVirtualManySleepers stresses the heap and the wake ordering: 64
// goroutines sleep pseudo-random ladders of durations; every wake must
// observe monotonically non-decreasing time and the final clock equals the
// maximum cumulative deadline.
func TestVirtualManySleepers(t *testing.T) {
	v := NewVirtual()
	const n = 64
	var wg sync.WaitGroup
	var maxTotal time.Duration
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		steps := 3 + i%5
		var total time.Duration
		durs := make([]time.Duration, steps)
		for j := range durs {
			durs[j] = time.Duration(1+(i*7+j*13)%23) * time.Millisecond
			total += durs[j]
		}
		mu.Lock()
		if total > maxTotal {
			maxTotal = total
		}
		mu.Unlock()
		v.Enter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer v.Exit()
			last := v.Now()
			for _, d := range durs {
				if !v.Sleep(context.Background(), d) {
					t.Error("sleep canceled")
					return
				}
				now := v.Now()
				if now < last+d {
					t.Errorf("woke at %v after sleeping %v from at-least %v", now, d, last)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	if now := v.Now(); now < maxTotal {
		t.Fatalf("final Now() = %v, want >= %v", now, maxTotal)
	}
}

// TestRealClockParity: the Real implementation matches the historical
// par.Sleep/time.Now behavior — Sleep waits roughly the requested wall
// time, cancellation returns false, Enter/Exit are no-ops, and Now is
// monotonic from construction.
func TestRealClockParity(t *testing.T) {
	r := NewReal()
	r.Enter() // no-ops must not panic or block
	r.Exit()
	if now := r.Now(); now < 0 || now > time.Second {
		t.Fatalf("fresh Real clock reads %v", now)
	}
	start := time.Now()
	if !r.Sleep(context.Background(), 10*time.Millisecond) {
		t.Fatal("real sleep canceled")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("real sleep returned after %v, want >= 10ms", elapsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r.Sleep(ctx, time.Hour) {
		t.Fatal("canceled real sleep reported completion")
	}
	a, b := r.Now(), r.Now()
	if b < a {
		t.Fatalf("Real.Now went backwards: %v then %v", a, b)
	}
}

// TestVirtualSleepSteadyStateZeroAlloc pins the sleeper pool: once a
// sleeper and the heap's backing array exist, a sleep that parks, advances
// the clock and wakes allocates nothing.
func TestVirtualSleepSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	v := NewVirtual()
	v.Enter()
	defer v.Exit()
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() { v.Sleep(ctx, time.Millisecond) }); allocs != 0 {
		t.Fatalf("steady-state Sleep allocates %v objects per call, want 0", allocs)
	}
	if want := 1001 * time.Millisecond; v.Now() != want { // AllocsPerRun warms up with one extra call
		t.Fatalf("Now() = %v after the sleeps, want %v", v.Now(), want)
	}
}

// TestVirtualSelfWakeSkipsContext pins the self-wake fast path: a sole
// participant's sleep is completed by its own advance while it parks, so
// Sleep never waits and never asks ctx for its Done channel — which a
// cancelable context makes lazily, on the first call. A sleep on a fresh
// context.WithCancel therefore costs no more than the context alone.
func TestVirtualSelfWakeSkipsContext(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	v := NewVirtual()
	v.Enter()
	defer v.Exit()
	bare := testing.AllocsPerRun(1000, func() {
		_, cancel := context.WithCancel(context.Background())
		cancel()
	})
	slept := testing.AllocsPerRun(1000, func() {
		ctx, cancel := context.WithCancel(context.Background())
		if !v.Sleep(ctx, time.Millisecond) {
			t.Fatal("a sole participant's sleep reported cancellation")
		}
		cancel()
	})
	if slept > bare {
		t.Fatalf("a self-woken sleep on a cancelable context allocates %v objects, the context alone %v", slept, bare)
	}
}

// TestVirtualPooledSleeperNeverWakesEarly covers the recycled wake channel
// on the self-wake path: a sole participant sleeping on an already canceled
// context fires itself while parking, so Sleep takes the wake token under
// the clock's lock and returns without looking at ctx. The sleep completed,
// the token must not survive into the pool — a stale one would end a later
// sleep before its deadline — and the clock's books must balance.
func TestVirtualPooledSleeperNeverWakesEarly(t *testing.T) {
	v := NewVirtual()
	v.Enter()
	defer v.Exit()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 1; i <= 200; i++ {
		if !v.Sleep(dead, time.Millisecond) {
			t.Fatalf("round %d: a sleep the clock had already fired reported cancellation", i)
		}
		if !v.Sleep(context.Background(), time.Millisecond) {
			t.Fatalf("round %d: live sleep reported cancellation", i)
		}
		v.mu.Lock()
		now, heapLen, active := v.now, len(v.heap), v.active
		v.mu.Unlock()
		if want := time.Duration(2*i) * time.Millisecond; now != want || heapLen != 0 || active != 1 {
			t.Fatalf("round %d: now=%v (want %v), %d parked, active=%d (want 1)", i, now, want, heapLen, active)
		}
	}
}
