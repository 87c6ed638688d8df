package origin

import (
	"testing"

	"sensei/internal/trace"
	"sensei/internal/vclock"
)

func TestShaperThrottleRate(t *testing.T) {
	tr := &trace.Trace{Name: "flat", BitsPerSecond: []float64{8e6}} // 1 MB/s
	s, err := NewShaper(tr, 0.01, vclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	// 100 KB at 1 MB/s = 0.1 virtual seconds = 1 ms wall at scale 0.01.
	d := s.Throttle(100 * 1024)
	wallMs := d.Seconds() * 1000
	if wallMs < 0.5 || wallMs > 2.5 {
		t.Fatalf("throttle %v ms for 100KB at 1MB/s scale 0.01", wallMs)
	}
}

func TestShaperValidates(t *testing.T) {
	if _, err := NewShaper(&trace.Trace{Name: "bad"}, 0.01, vclock.NewReal()); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
