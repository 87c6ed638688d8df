package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// writeTrace serializes tr the way Read's files store it: a name header,
// then one whole-bit sample per line.
func writeTrace(buf *bytes.Buffer, tr *Trace) {
	fmt.Fprintf(buf, "# trace: %s\n", tr.Name)
	for _, v := range tr.BitsPerSecond {
		fmt.Fprintf(buf, "%.0f\n", v)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := Generate(GenSpec{Name: "round-trip", Kind: KindFCC, MeanBps: 1.5e6, Seconds: 30, Seed: 7})
	var buf bytes.Buffer
	writeTrace(&buf, orig)
	got, err := Read(&buf, "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "round-trip" {
		t.Fatalf("name %q", got.Name)
	}
	if len(got.BitsPerSecond) != len(orig.BitsPerSecond) {
		t.Fatalf("%d samples, want %d", len(got.BitsPerSecond), len(orig.BitsPerSecond))
	}
	for i := range got.BitsPerSecond {
		// writeTrace rounds to whole bits.
		if d := got.BitsPerSecond[i] - orig.BitsPerSecond[i]; d > 0.5 || d < -0.5 {
			t.Fatalf("sample %d: %v vs %v", i, got.BitsPerSecond[i], orig.BitsPerSecond[i])
		}
	}
}

func TestReadTimestampPairs(t *testing.T) {
	in := `# a comment
0.0 1000000
1.0 2000000

2.0 1500000
`
	tr, err := Read(strings.NewReader(in), "pairs")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "pairs" {
		t.Fatalf("name %q", tr.Name)
	}
	want := []float64{1e6, 2e6, 1.5e6}
	for i, v := range want {
		if tr.BitsPerSecond[i] != v {
			t.Fatalf("sample %d: %v", i, tr.BitsPerSecond[i])
		}
	}
}

func TestReadClampsOutages(t *testing.T) {
	tr, err := Read(strings.NewReader("1000000\n0\n2000000\n"), "outage")
	if err != nil {
		t.Fatal(err)
	}
	if tr.BitsPerSecond[1] <= 0 {
		t.Fatal("zero sample not clamped")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("1 2 3\n"), "g"); err == nil {
		t.Error("three-field line accepted")
	}
	if _, err := Read(strings.NewReader("abc\n"), "g"); err == nil {
		t.Error("non-numeric line accepted")
	}
	if _, err := Read(strings.NewReader("# only comments\n"), "g"); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestReadHeaderName(t *testing.T) {
	tr, err := Read(strings.NewReader("# trace: my-cell-trace\n500000\n"), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "my-cell-trace" {
		t.Fatalf("name %q", tr.Name)
	}
}

// TestReadCRLF pins Windows line endings: bare samples, pairs and comments
// all parse identically under \r\n.
func TestReadCRLF(t *testing.T) {
	in := "# trace: crlf-trace\r\n1000000\r\n0.5 2000000\r\n\r\n# mid comment\r\n1500000\r\n"
	tr, err := Read(strings.NewReader(in), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "crlf-trace" {
		t.Fatalf("name %q", tr.Name)
	}
	want := []float64{1e6, 2e6, 1.5e6}
	if len(tr.BitsPerSecond) != len(want) {
		t.Fatalf("%d samples: %v", len(tr.BitsPerSecond), tr.BitsPerSecond)
	}
	for i, v := range want {
		if tr.BitsPerSecond[i] != v {
			t.Fatalf("sample %d: %v, want %v", i, tr.BitsPerSecond[i], v)
		}
	}
}

// TestReadMixedLineShapes accepts bare-bps and "timestamp bandwidth" lines
// interleaved in one file, with comments and blanks anywhere.
func TestReadMixedLineShapes(t *testing.T) {
	in := `# header comment
500000

12.5 750000
# interior comment
1250000
13.5   1500000
`
	tr, err := Read(strings.NewReader(in), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5e5, 7.5e5, 1.25e6, 1.5e6}
	if len(tr.BitsPerSecond) != len(want) {
		t.Fatalf("%d samples: %v", len(tr.BitsPerSecond), tr.BitsPerSecond)
	}
	for i, v := range want {
		if tr.BitsPerSecond[i] != v {
			t.Fatalf("sample %d: %v, want %v", i, tr.BitsPerSecond[i], v)
		}
	}
}

// TestWriteReadEquality is the full write→read round trip across both
// generator families: every sample survives within writeTrace's whole-bit
// rounding and the name survives exactly.
func TestWriteReadEquality(t *testing.T) {
	for _, spec := range []GenSpec{
		{Name: "rt-fcc", Kind: KindFCC, MeanBps: 2.5e6, Seconds: 120, Seed: 11},
		{Name: "rt-hsdpa", Kind: KindHSDPA, MeanBps: 0.7e6, Seconds: 120, Seed: 12},
	} {
		orig := Generate(spec)
		var buf bytes.Buffer
		writeTrace(&buf, orig)
		got, err := Read(&buf, "fallback")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != spec.Name {
			t.Fatalf("name %q, want %q", got.Name, spec.Name)
		}
		if len(got.BitsPerSecond) != len(orig.BitsPerSecond) {
			t.Fatalf("%s: %d samples, want %d", spec.Name, len(got.BitsPerSecond), len(orig.BitsPerSecond))
		}
		for i := range got.BitsPerSecond {
			if d := got.BitsPerSecond[i] - orig.BitsPerSecond[i]; d > 0.5 || d < -0.5 {
				t.Fatalf("%s sample %d: %v vs %v", spec.Name, i, got.BitsPerSecond[i], orig.BitsPerSecond[i])
			}
		}
		// And a second trip is exact: whole-bit values re-serialize
		// identically.
		var buf2 bytes.Buffer
		writeTrace(&buf2, got)
		again, err := Read(&buf2, "fallback")
		if err != nil {
			t.Fatal(err)
		}
		for i := range again.BitsPerSecond {
			if again.BitsPerSecond[i] != got.BitsPerSecond[i] {
				t.Fatalf("%s second trip sample %d drifted", spec.Name, i)
			}
		}
	}
}
