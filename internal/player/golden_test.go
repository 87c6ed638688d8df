package player_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sensei/internal/abr"
	"sensei/internal/player"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// The golden grid pins the playback arithmetic to constants generated at
// the commit BEFORE Playback existed (PlayWithSource's hand-written loop,
// 055c784). The parity suite only proves that two drivers feed one
// implementation the same numbers; this is what proves the implementation
// itself did not move. Every session field that buffer / stall / history
// arithmetic can reach is hashed bit for bit.

// preStaller is a scripted algorithm that exercises every pre-stall rule:
// a stall before chunk 0 (must be dropped), stalls above the cap (must be
// clamped), fractional stalls, and a rung walk that both fills and drains
// the buffer.
type preStaller struct{}

func (preStaller) Name() string { return "scripted-prestall" }
func (preStaller) Decide(s *player.State) player.Decision {
	i := s.ChunkIndex
	d := player.Decision{Rung: (i * 3 / 2) % len(s.Video.Ladder)}
	switch i % 7 {
	case 0:
		d.PreStallSec = 1
	case 3:
		d.PreStallSec = 3.5 // above the default cap of 2
	case 5:
		d.PreStallSec = 0.25
	}
	return d
}

// goldenDigest hashes everything the playback arithmetic produces.
func goldenDigest(res *player.Result) string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	for _, r := range res.Rendering.Rungs {
		u64(uint64(r))
	}
	for _, s := range res.Rendering.StallSec {
		f64(s)
	}
	for _, e := range res.ChunkEpochs {
		u64(e)
	}
	f64(res.RebufferSec)
	f64(res.ProactiveStallSec)
	f64(res.StartupSec)
	f64(res.WallClockSec)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenTraces picks the slowest, a middle and the fastest evaluation
// trace: sustained stalling, decision pressure, and full-buffer waits.
func goldenTraces() []*trace.Trace {
	set := trace.TestSet()
	return []*trace.Trace{set[0], set[4], set[9]}
}

// flipWeights is the second epoch of the scripted flip: the true
// sensitivity reversed, so the plan visibly changes at the flip.
func flipWeights(w []float64) []float64 {
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[len(w)-1-i]
	}
	return out
}

func TestGoldenPlaybackArithmetic(t *testing.T) {
	type arm struct {
		name string
		play func(v *video.Video, tr *trace.Trace) (*player.Result, error)
	}
	arms := []arm{
		{"fugu", func(v *video.Video, tr *trace.Trace) (*player.Result, error) {
			return player.Play(v, tr, abr.NewFugu(), nil, player.Config{})
		}},
		{"sensei-fugu", func(v *video.Video, tr *trace.Trace) (*player.Result, error) {
			return player.Play(v, tr, abr.NewSenseiFugu(), v.TrueSensitivity(), player.Config{})
		}},
		{"bba", func(v *video.Video, tr *trace.Trace) (*player.Result, error) {
			return player.Play(v, tr, abr.NewBBA(), nil, player.Config{})
		}},
		{"prestall", func(v *video.Video, tr *trace.Trace) (*player.Result, error) {
			return player.Play(v, tr, preStaller{}, nil, player.Config{})
		}},
		{"epoch-flip", func(v *video.Video, tr *trace.Trace) (*player.Result, error) {
			w := v.TrueSensitivity()
			src, err := sensitivity.NewScript(v.Name,
				sensitivity.ScriptStep{Weights: w, Chunks: v.NumChunks() / 3},
				sensitivity.ScriptStep{Weights: flipWeights(w)})
			if err != nil {
				return nil, err
			}
			return player.PlayWithSource(v, tr, abr.NewSenseiFugu(), src, player.Config{})
		}},
	}
	traces := goldenTraces()
	for _, name := range []string{"Soccer1", "Mountain", "BigBuckBunny"} {
		v, err := video.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			for _, a := range arms {
				key := name + "/" + tr.Name + "/" + a.name
				res, err := a.play(v, tr)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want, ok := goldenPlayback[key]
				if !ok {
					t.Errorf("%q: %q,", key, goldenDigest(res))
					continue
				}
				if got := goldenDigest(res); got != want {
					t.Errorf("%s: digest %s, want %s (generated at the pre-Playback commit)", key, got, want)
				}
			}
		}
	}
}

// goldenPlayback holds the digests printed by this test at commit 055c784.
var goldenPlayback = map[string]string{
	"Soccer1/hsdpa-0.55M/fugu":             "dfcc2f09bb7c23ed",
	"Soccer1/hsdpa-0.55M/sensei-fugu":      "5911c272f0db43cd",
	"Soccer1/hsdpa-0.55M/bba":              "944c96421bb54d25",
	"Soccer1/hsdpa-0.55M/prestall":         "713525de596fccad",
	"Soccer1/hsdpa-0.55M/epoch-flip":       "c878099f730466ef",
	"Soccer1/fcc-1.7M/fugu":                "c7a3a6e44092967c",
	"Soccer1/fcc-1.7M/sensei-fugu":         "0b2a37629dbef894",
	"Soccer1/fcc-1.7M/bba":                 "8a8fb3ea00d06350",
	"Soccer1/fcc-1.7M/prestall":            "45e14d1d71ee3f9a",
	"Soccer1/fcc-1.7M/epoch-flip":          "e3c44c11d7f440f3",
	"Soccer1/fcc-5.8M/fugu":                "1a59c20278725117",
	"Soccer1/fcc-5.8M/sensei-fugu":         "24b59d99b1885d37",
	"Soccer1/fcc-5.8M/bba":                 "8cb5fe3cd7081eaa",
	"Soccer1/fcc-5.8M/prestall":            "542905e06a3e63a9",
	"Soccer1/fcc-5.8M/epoch-flip":          "cda0b79be475d857",
	"Mountain/hsdpa-0.55M/fugu":            "d9b3f45a6857a38e",
	"Mountain/hsdpa-0.55M/sensei-fugu":     "306ba741173f672e",
	"Mountain/hsdpa-0.55M/bba":             "72223ba51ddebe77",
	"Mountain/hsdpa-0.55M/prestall":        "8a792e3298430c47",
	"Mountain/hsdpa-0.55M/epoch-flip":      "3e0805bb5f8f5931",
	"Mountain/fcc-1.7M/fugu":               "f3951c076bb52b7e",
	"Mountain/fcc-1.7M/sensei-fugu":        "ac0bd99156677815",
	"Mountain/fcc-1.7M/bba":                "0301b2b49fab26d8",
	"Mountain/fcc-1.7M/prestall":           "be43ed580d24f439",
	"Mountain/fcc-1.7M/epoch-flip":         "67146b06571b7bd1",
	"Mountain/fcc-5.8M/fugu":               "58459a88d4282522",
	"Mountain/fcc-5.8M/sensei-fugu":        "c47f1444e5f7be27",
	"Mountain/fcc-5.8M/bba":                "4d617b6afc1d338d",
	"Mountain/fcc-5.8M/prestall":           "f861f70a97310289",
	"Mountain/fcc-5.8M/epoch-flip":         "d98d11b24aa2e007",
	"BigBuckBunny/hsdpa-0.55M/fugu":        "c81e0973851bc19e",
	"BigBuckBunny/hsdpa-0.55M/sensei-fugu": "bdb4bfd6d90d12e9",
	"BigBuckBunny/hsdpa-0.55M/bba":         "2972b1b86f58c122",
	"BigBuckBunny/hsdpa-0.55M/prestall":    "f15cbb02f12babc7",
	"BigBuckBunny/hsdpa-0.55M/epoch-flip":  "5fbe3c261684a0c2",
	"BigBuckBunny/fcc-1.7M/fugu":           "7ddb362b28d081e9",
	"BigBuckBunny/fcc-1.7M/sensei-fugu":    "189636a1d874013a",
	"BigBuckBunny/fcc-1.7M/bba":            "11af34324aa3ffbd",
	"BigBuckBunny/fcc-1.7M/prestall":       "92e6f1b833e2859b",
	"BigBuckBunny/fcc-1.7M/epoch-flip":     "339dc9a7f12652da",
	"BigBuckBunny/fcc-5.8M/fugu":           "53ed62f9d42ce3a1",
	"BigBuckBunny/fcc-5.8M/sensei-fugu":    "0126a0a3d7264cbc",
	"BigBuckBunny/fcc-5.8M/bba":            "8a1c79990c748dfc",
	"BigBuckBunny/fcc-5.8M/prestall":       "631ef8c68393faca",
	"BigBuckBunny/fcc-5.8M/epoch-flip":     "3c54bda1f91decfc",
}
