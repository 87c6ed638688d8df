package hashx

import (
	"hash/fnv"
	"testing"
)

// TestMix64ReferenceVectors pins Mix64 to splitmix64's published output
// for seed 0 (Vigna's reference implementation): every seeded stream in
// the repository is a function of these bits.
func TestMix64ReferenceVectors(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Mix64(state); got != w {
			t.Fatalf("output %d: %#x, want %#x", i, got, w)
		}
		state += Gamma
	}
}

func TestFNV1aMatchesStdlib(t *testing.T) {
	for _, parts := range [][]string{{""}, {"a"}, {"shard-3"}, {"slot-17", "\x00", "segment"}} {
		ref := fnv.New64a()
		h := FNV1a("")
		for _, p := range parts {
			ref.Write([]byte(p))
			h = FNV1aFrom(h, p)
		}
		if h != ref.Sum64() {
			t.Fatalf("%q: %#x, want %#x", parts, h, ref.Sum64())
		}
	}
	if FNV1a("shard-3") != FNV1aFrom(FNV1a("shard"), "-3") {
		t.Fatal("FNV1aFrom does not continue FNV1a")
	}
}
