package sensitivity

import (
	"math"
	"sync"
	"testing"
)

func TestFreezeLegacySlice(t *testing.T) {
	f := Freeze("v", []float64{1, 2, 0.5})
	p, epoch := f.Snapshot()
	if epoch != 1 || p.Epoch != 1 {
		t.Fatalf("frozen weights at epoch %d", epoch)
	}
	if p.VideoName != "v" || len(p.Weights) != 3 {
		t.Fatalf("snapshot %+v", p)
	}

	nilF := Freeze("v", nil)
	p, epoch = nilF.Snapshot()
	if epoch != 0 || p.Weights != nil {
		t.Fatalf("nil freeze: epoch %d weights %v", epoch, p.Weights)
	}
}

func TestVersionedPublishBumpsEpochAtomically(t *testing.T) {
	v := NewVersioned("v", []float64{1, 1, 1})
	p1, e1 := v.Snapshot()
	if e1 != 1 {
		t.Fatalf("initial epoch %d", e1)
	}

	p2, err := v.Publish([]float64{2, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Epoch != 2 {
		t.Fatalf("published epoch %d", p2.Epoch)
	}
	// The old snapshot is untouched: immutability is the whole contract.
	if p1.Weights[0] != 1 || p1.Epoch != 1 {
		t.Fatalf("old snapshot mutated: %+v", p1)
	}
	got, e := v.Snapshot()
	if e != 2 || got.Weights[0] != 2 {
		t.Fatalf("snapshot after publish: epoch %d weights %v", e, got.Weights)
	}
}

func TestVersionedRejectsBadPublishes(t *testing.T) {
	v := NewVersioned("v", []float64{1, 1, 1})
	if _, err := v.Publish([]float64{1, 1}); err == nil {
		t.Fatal("chunk-count change accepted")
	}
	if _, err := v.Publish([]float64{1, -1, 1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := v.Publish([]float64{1, math.NaN(), 1}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := v.Publish([]float64{1, 11, 1}); err == nil {
		t.Fatal("out-of-range weight accepted")
	}
	if _, e := v.Snapshot(); e != 1 {
		t.Fatalf("failed publishes moved the epoch to %d", e)
	}
}

// TestVersionedConcurrentReaders hammers Snapshot against publishes: every
// observed profile must be internally consistent (epoch matches content
// generation) — the no-tearing guarantee MPC relies on mid-plan.
func TestVersionedConcurrentReaders(t *testing.T) {
	v := NewVersioned("v", []float64{1, 1})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 1000; i++ {
				p, e := v.Snapshot()
				if e < last {
					t.Errorf("epoch went backwards: %d after %d", e, last)
					return
				}
				last = e
				// The weight value encodes the epoch that published it, so a
				// mixed (torn) snapshot is directly observable.
				want := float64(e)
				if p.Weights[0] != want || p.Weights[1] != want {
					t.Errorf("torn snapshot at epoch %d: %v", e, p.Weights)
					return
				}
			}
		}()
	}
	// ValidWeight caps weights at 10, so generations run 2..9.
	for g := 2; g <= 9; g++ {
		if _, err := v.Publish([]float64{float64(g), float64(g)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestScriptFlipsOnScheduledCall(t *testing.T) {
	w1 := []float64{1, 1, 1}
	w2 := []float64{2, 0.5, 0.5}
	s, err := NewScript("v", ScriptStep{Weights: w1, Chunks: 3}, ScriptStep{Weights: w2})
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	for i := 0; i < 6; i++ {
		_, e := s.Snapshot()
		epochs = append(epochs, e)
	}
	want := []uint64{1, 1, 1, 2, 2, 2}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("epoch sequence %v, want %v", epochs, want)
		}
	}
}

func TestScriptValidation(t *testing.T) {
	if _, err := NewScript("v"); err == nil {
		t.Fatal("empty script accepted")
	}
	if _, err := NewScript("v", ScriptStep{Weights: []float64{1, -1}}); err == nil {
		t.Fatal("invalid weights accepted")
	}
	if _, err := NewScript("v",
		ScriptStep{Weights: []float64{1, 1}, Chunks: 1},
		ScriptStep{Weights: []float64{1}},
	); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSpliceRenormalizes(t *testing.T) {
	base := []float64{1, 1, 1, 1}
	out, err := Splice(base, 1, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range out {
		sum += w
	}
	if math.Abs(sum/float64(len(out))-1) > 1e-12 {
		t.Fatalf("mean %v after splice", sum/float64(len(out)))
	}
	// The window chunks must stand out relative to the untouched ones.
	if out[1] <= out[0] || out[2] <= out[3] {
		t.Fatalf("splice lost the window: %v", out)
	}
	// base untouched.
	for _, w := range base {
		if w != 1 {
			t.Fatalf("base mutated: %v", base)
		}
	}

	if _, err := Splice(base, 3, []float64{1, 1}); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	if _, err := Splice(base, 0, nil); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"unprofiled", Profile{VideoName: "v"}, true},
		{"weighted", Profile{VideoName: "v", Epoch: 1, Weights: []float64{1}}, true},
		{"weighted epoch0", Profile{VideoName: "v", Weights: []float64{1}}, false},
		{"nil weights epoch1", Profile{VideoName: "v", Epoch: 1}, false},
		{"nan", Profile{VideoName: "v", Epoch: 1, Weights: []float64{math.NaN()}}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v", c.name, err)
		}
	}
}
