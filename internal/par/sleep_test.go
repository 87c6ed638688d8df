package par

import (
	"context"
	"testing"
	"time"
)

// TestSleepReusesTimer pins Sleep's timer pool: a steady-state sleep
// allocates nothing, and a timer returned to the pool by a canceled sleep
// carries no stale tick into the next one. Each round cancels a 1 ms sleep
// part-way — at once, or up to 900 µs in, where the timer may be ready too
// when the select runs — and then sleeps 2 ms; a tick left in a reused
// timer's channel would end that sleep early.
func TestSleepReusesTimer(t *testing.T) {
	if !raceEnabled {
		ctx := context.Background()
		if allocs := testing.AllocsPerRun(200, func() {
			if !Sleep(ctx, 20*time.Microsecond) {
				t.Fatal("a sleep on a background context reported cancellation")
			}
		}); allocs != 0 {
			t.Fatalf("steady-state Sleep allocates %v objects per call, want 0", allocs)
		}
	}
	const want = 2 * time.Millisecond
	canceled := 0
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%10)*100*time.Microsecond)
		if !Sleep(ctx, time.Millisecond) {
			canceled++
		}
		cancel()
		start := time.Now()
		if !Sleep(context.Background(), want) {
			t.Fatalf("round %d: a sleep on a background context reported cancellation", i)
		}
		if got := time.Since(start); got < want {
			t.Fatalf("round %d: a %v sleep after a canceled one ended after %v", i, want, got)
		}
	}
	if canceled == 0 {
		t.Fatal("no sleep was canceled: the test exercised only completed timers")
	}
}
