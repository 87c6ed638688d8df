package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/ingest"
	"sensei/internal/qlog"
	"sensei/internal/sensitivity"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// The probes time one call into a layer whose cost the W-client workloads
// cannot isolate (or, for the virtual clock's deep heap, cannot reach).
// Each returns ns per call as the median of probeRounds rounds.

const probeRounds = 5

func probe(round func() (calls int, elapsed time.Duration, err error)) (float64, error) {
	per := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		calls, elapsed, err := round()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(elapsed.Nanoseconds())/float64(calls))
	}
	return median(per), nil
}

// probeVclockSleep times Virtual.Sleep with 512 other sleepers parked: the
// deep-heap case. Every probed sleep pushes onto and pops off a 513-deep
// heap and makes the clock quiescent, so it also pays the advance.
func probeVclockSleep() (float64, error) {
	const depth, calls = 512, 4000
	return probe(func() (int, time.Duration, error) {
		v := vclock.NewVirtual()
		ctx, cancel := context.WithCancel(context.Background())
		var parked, done sync.WaitGroup
		v.Enter() // the probe itself: holds time still while the sleepers park
		for i := 0; i < depth; i++ {
			parked.Add(1)
			done.Add(1)
			v.Enter()
			go func() {
				defer done.Done()
				defer v.Exit()
				parked.Done()
				v.Sleep(ctx, time.Hour)
			}()
		}
		parked.Wait()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			v.Sleep(ctx, time.Microsecond)
		}
		elapsed := time.Since(t0)
		cancel()
		v.Exit()
		done.Wait()
		return calls, elapsed, nil
	})
}

// probeQlogEmit times qlog.Emit into a ring that is drained (outside the
// timed region) whenever it fills.
func probeQlogEmit() (float64, error) {
	const laps = 64
	ring, m := qlog.NewRing(0), &qlog.Metrics{}
	buf := make([]qlog.Event, 0, ring.Cap())
	return probe(func() (int, time.Duration, error) {
		var elapsed time.Duration
		for l := 0; l < laps; l++ {
			t0 := time.Now()
			for i := 0; i < ring.Cap(); i++ {
				qlog.Emit(ring, m, qlog.Event{Kind: qlog.KindChunkDone, Chunk: int32(i), Bytes: 1 << 18})
			}
			elapsed += time.Since(t0)
			buf = ring.Drain(buf[:0])
		}
		if d := ring.Drops(); d != 0 {
			return 0, 0, fmt.Errorf("qlog probe dropped %d events", d)
		}
		return laps * ring.Cap(), elapsed, nil
	})
}

// probeChaosDecide times one Injector.Decide at the fleet's fault rate.
func probeChaosDecide(seed uint64) (float64, error) {
	const calls = 100_000
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%04d", i)
	}
	return probe(func() (int, time.Duration, error) {
		inj, err := chaos.NewInjector(chaos.Uniform(seed, 0.08))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			inj.Decide(keys[i%len(keys)], chaos.KindSegment)
		}
		return calls, time.Since(t0), nil
	})
}

// idleRefresher serves epoch 1 forever; the ingest probe never lets the
// autopilot's gate pass, so RefreshWindow is never reached.
type idleRefresher struct{}

func (idleRefresher) EpochOf(string) uint64 { return 1 }
func (idleRefresher) RefreshWindow(string, int, int) (uint64, error) {
	return 0, fmt.Errorf("ingest probe: unexpected refresh")
}

// probeIngest times one Plane.Ingest of an accepted rating.
func probeIngest() (float64, error) {
	const calls = 100_000
	v, err := video.ByName("Soccer1")
	if err != nil {
		return 0, err
	}
	return probe(func() (int, time.Duration, error) {
		plane, err := ingest.New(ingest.Config{MinSamples: 1 << 30}, idleRefresher{}, nil)
		if err != nil {
			return 0, 0, err
		}
		defer plane.Close()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := plane.Ingest(v, i%v.NumChunks(), 1, 1+i%5); err != nil {
				return 0, 0, err
			}
		}
		return calls, time.Since(t0), nil
	})
}

// probeSnapshot times one sensitivity.Versioned.Snapshot, the read every
// decision and every origin epoch stamp makes.
func probeSnapshot() (float64, error) {
	const calls = 1_000_000
	v, err := video.ByName("Soccer1")
	if err != nil {
		return 0, err
	}
	src := sensitivity.NewVersioned(v.Name, v.TrueSensitivity())
	return probe(func() (int, time.Duration, error) {
		var sink uint64
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_, e := src.Snapshot()
			sink += e
		}
		elapsed := time.Since(t0)
		if sink == 0 {
			return 0, 0, fmt.Errorf("sensitivity probe read epoch 0")
		}
		return calls, elapsed, nil
	})
}

// runProbes fills the probe metrics.
func runProbes(seed uint64, out map[string]float64) error {
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"vclock.sleep_ns_d512", probeVclockSleep},
		{"qlog.emit_ns", probeQlogEmit},
		{"chaos.decide_ns", func() (float64, error) { return probeChaosDecide(seed) }},
		{"ingest.ingest_ns", probeIngest},
		{"sensitivity.snapshot_ns", probeSnapshot},
	}
	for _, p := range probes {
		v, err := p.fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v
	}
	return nil
}
