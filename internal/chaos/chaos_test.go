package chaos

import (
	"testing"
	"time"
)

func TestPolicyValidate(t *testing.T) {
	good := Uniform(1, 0.1)
	if err := good.Validate(); err != nil {
		t.Fatalf("Uniform policy invalid: %v", err)
	}
	cases := []struct {
		name string
		p    Policy
	}{
		{"rate >= 1", Policy{Endpoints: map[Kind]Spec{KindSegment: {Rate: 1}}}},
		{"rate < 0", Policy{Endpoints: map[Kind]Spec{KindSegment: {Rate: -0.1}}}},
		{"unknown kind", Policy{Endpoints: map[Kind]Spec{"bogus": {Rate: 0.1}}}},
		{"unknown mode", Policy{Endpoints: map[Kind]Spec{KindSegment: {Rate: 0.1, Modes: []Mode{"melt"}}}}},
		{"truncate on manifest", Policy{Endpoints: map[Kind]Spec{KindManifest: {Rate: 0.1, Modes: []Mode{ModeTruncate}}}}},
		{"negative ceiling", Policy{MaxConsecutive: -1}},
		{"truncate fraction 1", Policy{TruncateFraction: 1}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.p)
		}
	}
}

// TestInjectorDeterministicReplay drives one injector through interleaved
// streams and proves three things: a second injector with the same policy
// produces the identical decision sequence, the journal matches
// Policy.Replay exactly, and the ledger counts equal the journal.
func TestInjectorDeterministicReplay(t *testing.T) {
	p := Uniform(0xfeed, 0.3)
	a, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewInjector(p)

	keys := []string{"s0001", "s0002", "s0003"}
	var got []Mode
	for i := 0; i < 200; i++ {
		key := keys[i%len(keys)]
		kind := Kinds()[i%len(Kinds())]
		ma := a.Decide(key, kind)
		if mb := b.Decide(key, kind); mb != ma {
			t.Fatalf("iteration %d: injectors disagree (%q vs %q)", i, ma, mb)
		}
		got = append(got, ma)
	}

	// Replay every journaled fault from the seed.
	journal := a.Journal()
	if len(journal) == 0 {
		t.Fatal("no faults injected at rate 0.3 over 200 requests — seed needs changing")
	}
	maxSeq := map[streamKey]uint64{}
	for _, e := range journal {
		sk := streamKey{e.Key, e.Kind}
		if e.Seq+1 > maxSeq[sk] {
			maxSeq[sk] = e.Seq + 1
		}
	}
	replayed := map[streamKey][]Mode{}
	for sk, n := range maxSeq {
		replayed[sk] = p.Replay(sk.key, sk.kind, n)
	}
	for _, e := range journal {
		if m := replayed[streamKey{e.Key, e.Kind}][e.Seq]; m != e.Mode {
			t.Fatalf("journal event %+v not reproduced by Replay (got %q)", e, m)
		}
	}

	// Ledger equals journal.
	st := a.Stats()
	if st.Total != int64(len(journal)) {
		t.Fatalf("Stats.Total = %d, journal has %d events", st.Total, len(journal))
	}
	if st.JournalDropped != 0 {
		t.Fatalf("JournalDropped = %d, want 0", st.JournalDropped)
	}
	var faults int64
	for _, m := range got {
		if m != "" {
			faults++
		}
	}
	if faults != st.Total {
		t.Fatalf("observed %d faults, ledger says %d", faults, st.Total)
	}
}

// TestInjectorFaultCeiling proves no stream ever sees more than
// MaxConsecutive back-to-back faults, even at a near-certain fault rate.
func TestInjectorFaultCeiling(t *testing.T) {
	p := Policy{
		Seed:           7,
		Endpoints:      map[Kind]Spec{KindSegment: {Rate: 0.99}},
		MaxConsecutive: 2,
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	run, worst := 0, 0
	for i := 0; i < 1000; i++ {
		if in.Decide("s", KindSegment) != "" {
			run++
			if run > worst {
				worst = run
			}
		} else {
			run = 0
		}
	}
	if worst != 2 {
		t.Fatalf("worst consecutive-fault run = %d, want exactly the ceiling 2 at rate 0.99", worst)
	}
}

// TestPolicyStallAndTruncate pins the arithmetic the origin realizes
// ModeStall and ModeTruncate with: the stall's default, and a truncated
// body that is always at least one byte and always at least one byte
// short (a body under two bytes is never cut).
func TestPolicyStallAndTruncate(t *testing.T) {
	var zero Policy
	if got := zero.Stall(); got != DefaultStallDelay {
		t.Fatalf("default stall %v, want %v", got, DefaultStallDelay)
	}
	p := Policy{StallDelay: 5 * time.Millisecond, TruncateFraction: 0.25}
	if got := p.Stall(); got != 5*time.Millisecond {
		t.Fatalf("stall %v, want 5ms", got)
	}
	for _, tc := range []struct {
		p          Policy
		size, want int
	}{
		{p, 1000, 250},
		{p, 3, 1},
		{p, 2, 1},
		{p, 1, 1},
		{p, 0, 0},
		{Policy{TruncateFraction: 0.999}, 10, 9},
		{zero, 1000, 500},
	} {
		if got := tc.p.Truncate(tc.size); got != tc.want {
			t.Errorf("fraction %v: Truncate(%d) = %d, want %d", tc.p.TruncateFraction, tc.size, got, tc.want)
		}
	}
}

// TestMiddlewareAnonKey confirms keyless requests share the anon stream.
func TestMiddlewareAnonKey(t *testing.T) {
	p := Uniform(11, 0.5)
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		in.Decide("", KindRating)
	}
	want := p.Replay(anonKey, KindRating, 10)
	var injected int64
	for _, m := range want {
		if m != "" {
			injected++
		}
	}
	if st := in.Stats(); st.ByKind[string(KindRating)] != injected {
		t.Fatalf("anon stream ledger %d, replay says %d", st.ByKind[string(KindRating)], injected)
	}
}
