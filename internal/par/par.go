// Package par is the bounded-parallelism substrate of the experiment lab —
// a deterministic fork-join loop over an index space — plus the emulation
// layer's shared context-aware Sleep.
//
// The determinism contract used throughout SENSEI is that parallel code
// must produce bit-identical results regardless of worker count, machine,
// or scheduling. ForEach supports that discipline rather than enforcing
// it; callers uphold it by following three rules:
//
//  1. Task i writes only to slot i of pre-sized result slices — never to
//     shared accumulators — and any floating-point reduction happens
//     sequentially, in index order, after ForEach returns (float addition
//     is not associative, so reduction order must be fixed).
//  2. Randomness comes from per-task seeds derived from the task index
//     (or from precomputed rater offsets), never from a shared stream or
//     a per-worker state: workers steal indices dynamically, so anything
//     keyed by worker identity or arrival order is nondeterministic.
//  3. Shared inputs (populations, videos, traces, trained models) are
//     read-only for the duration of the loop.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sleep pauses for d unless ctx is canceled first and reports whether the
// full sleep completed. It is the shared context-aware sleep of the
// emulation layer — the origin's shaped segment writes and the DASH
// client's buffer-full waits both pace wall clock with it, and a wall-clock
// sleep must never outlive the request or stream it serves.
//
// Timers are recycled through timers, so a steady-state Sleep allocates
// nothing. Reuse is safe because go.mod's go 1.24 gives synchronous timer
// channels (Go 1.23's semantics): after Stop or Reset returns, no value
// from the timer's earlier schedule can be received, so a pooled timer
// never delivers a stale tick from the sleep that last used it.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	defer timers.Put(t)
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-t.C:
		return true
	}
}

// timers holds stopped or expired-and-drained timers for Sleep.
var timers sync.Pool

// ForEach runs fn(i) for every i in [0, n), fanning the indices across up
// to GOMAXPROCS goroutines, and waits for all of them. On failure the
// remaining tasks are skipped and the lowest-indexed recorded error is
// returned. ForEach itself is safe for nested and concurrent use; n <= 1
// runs inline.
func ForEach(n int, fn func(i int) error) error {
	return ForEachN(n, runtime.GOMAXPROCS(0), fn)
}

// ForEachN is ForEach with an explicit worker bound, used by benchmarks to
// compare serial and parallel execution of the same loop.
func ForEachN(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// After a failure, drain remaining indices without running
				// them: the loop's result is already an error, and callers
				// expect fail-fast behaviour from long fan-outs.
				if failed.Load() {
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
