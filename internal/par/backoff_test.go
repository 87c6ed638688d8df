package par

import (
	"context"
	"testing"
	"time"
)

// TestBackoffDeterministicJitter pins the two halves of the Delay contract:
// the same (Seed, attempt) always yields the same delay, and a different
// seed yields a different jitter sequence (de-synchronized retry storms).
func TestBackoffDeterministicJitter(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Seed: 42}
	var first []time.Duration
	for attempt := 0; attempt < 6; attempt++ {
		first = append(first, b.Delay(attempt))
	}
	for attempt, want := range first {
		if got := b.Delay(attempt); got != want {
			t.Fatalf("Delay(%d) not deterministic: %v then %v", attempt, want, got)
		}
	}
	other := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Seed: 43}
	same := 0
	for attempt := range first {
		if other.Delay(attempt) == first[attempt] {
			same++
		}
	}
	if same == len(first) {
		t.Fatalf("seeds 42 and 43 produced identical jitter sequences %v", first)
	}
}

// TestBackoffExponentialEnvelope checks each delay lands in the jittered
// [50%, 100%) window of its nominal exponential value and saturates at Max.
func TestBackoffExponentialEnvelope(t *testing.T) {
	base, max := 10*time.Millisecond, 60*time.Millisecond
	b := Backoff{Base: base, Max: max, Seed: 7}
	for attempt := 0; attempt < 10; attempt++ {
		nominal := base
		for i := 0; i < attempt && nominal < max; i++ {
			nominal *= 2
		}
		if nominal > max {
			nominal = max
		}
		d := b.Delay(attempt)
		if d < nominal/2 || d >= nominal {
			t.Fatalf("Delay(%d) = %v outside jitter window [%v, %v)", attempt, d, nominal/2, nominal)
		}
	}
	// Far past the cap the delay must stay bounded, never overflow.
	if d := b.Delay(200); d <= 0 || d >= max {
		t.Fatalf("Delay(200) = %v, want within (0, %v)", d, max)
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if got := b.Budget(); got != DefaultBackoffAttempts {
		t.Fatalf("zero-value Budget() = %d, want %d", got, DefaultBackoffAttempts)
	}
	if got := (Backoff{Attempts: -1}).Budget(); got != 0 {
		t.Fatalf("Attempts:-1 Budget() = %d, want 0", got)
	}
	if got := (Backoff{Attempts: 7}).Budget(); got != 7 {
		t.Fatalf("Attempts:7 Budget() = %d, want 7", got)
	}
	if d := b.Delay(0); d < DefaultBackoffBase/2 || d >= DefaultBackoffBase {
		t.Fatalf("zero-value Delay(0) = %v outside [%v, %v)", d, DefaultBackoffBase/2, DefaultBackoffBase)
	}
}

// TestBackoffSleepContextCanceled cancels mid-wait: Sleep of a backoff
// delay must return false promptly instead of serving the full delay.
func TestBackoffSleepContextCanceled(t *testing.T) {
	b := Backoff{Base: 30 * time.Second, Max: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- Sleep(ctx, b.Delay(0)) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case completed := <-done:
		if completed {
			t.Fatal("Sleep reported a completed pause despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after context cancellation")
	}
}

// TestBackoffDelayZeroAlloc is the steady-state allocation contract: retry
// scheduling must not create garbage on the hot path.
func TestBackoffDelayZeroAlloc(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Seed: 9}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = b.Delay(3)
	})
	if allocs != 0 {
		t.Fatalf("Delay allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkBackoff(b *testing.B) {
	bo := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Seed: 1}
	b.ReportAllocs()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += bo.Delay(i & 7)
	}
	_ = sink
}
