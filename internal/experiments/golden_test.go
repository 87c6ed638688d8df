package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestQuickGolden pins the science: every table and figure of the quick
// lab, rendered in All's order, must match testdata/quick.golden byte for
// byte. The file is senseibench -mode quick's stdout without its
// "[id completed in Xs]" lines. A diff is a claim that a reproduced result
// moved; regenerate with -update only in a change that argues why.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures (arm64, ppc64,
		// s390x), which moves last digits; the golden is pinned on amd64.
		t.Skipf("quick.golden is pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	l := quickLab(t)
	var got bytes.Buffer
	starts := make([]int, len(All)) // first line of each experiment in got
	for i, e := range All {
		starts[i] = bytes.Count(got.Bytes(), []byte("\n"))
		out, err := e.Run(l)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got.WriteString(out)
		got.WriteString("\n\n")
	}

	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	var moved []string
	for i, e := range All {
		end := len(gotLines)
		if i+1 < len(All) {
			end = starts[i+1]
		}
		for n := starts[i]; n < end; n++ {
			if n >= len(wantLines) || gotLines[n] != wantLines[n] {
				moved = append(moved, e.ID)
				break
			}
		}
	}
	for n := range gotLines {
		if n >= len(wantLines) || gotLines[n] != wantLines[n] {
			var w string
			if n < len(wantLines) {
				w = wantLines[n]
			}
			t.Fatalf("quick lab differs from %s (experiments %s); first at line %d:\n got: %q\nwant: %q",
				path, strings.Join(moved, ", "), n+1, gotLines[n], w)
		}
	}
	t.Fatalf("quick lab output is a prefix of %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
