package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sensei/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from this run")

// goldenConfig is the fleet the report golden pins: transportParityConfig
// on a single origin with chaos on every endpoint kind its sessions use, a
// mid-run refresh and the event plane, traces tallied but not kept so the
// golden stays readable. Raters are left out (the ingest autopilot's timing
// is not yet deterministic) and so are shards (random session IDs pick the
// shard).
func goldenConfig(t testing.TB) Config {
	spec := chaosFleetSpec()
	delete(spec.Endpoints, chaos.KindRating) // no raters in this fleet
	cfg := transportParityConfig(t, spec)
	cfg.Events = &EventsSpec{}
	return cfg
}

// TestFleetReportGolden pins what a fleet run reports: goldenConfig's
// report as indented JSON, followed by Render() without its two wall-clock
// lines ("fleet:" and "clock:"), must match testdata/report.golden byte
// for byte. Every ledger, the refresh tally and the reconciliation verdict
// are in it, so a change to how a report is built or reconciled that moves
// any of them fails here. Regenerate with -update only in a change that
// argues why the report moved — never to make a refactor pass.
func TestFleetReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds elsewhere, which moves the last digits
		// of the QoE and throughput figures.
		t.Skipf("report.golden is pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	rep, err := Run(context.Background(), goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciliation.Ok {
		t.Fatalf("fleet did not reconcile:\n%s", rep.Render())
	}
	stripWall(rep)
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.Write(js)
	got.WriteString("\n\n")
	for _, line := range strings.Split(rep.Render(), "\n") {
		if strings.HasPrefix(line, "fleet:") || strings.HasPrefix(line, "clock:") {
			continue
		}
		got.WriteString(line)
		got.WriteByte('\n')
	}

	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
	for n := range gotLines {
		if n >= len(wantLines) || gotLines[n] != wantLines[n] {
			var w string
			if n < len(wantLines) {
				w = wantLines[n]
			}
			t.Fatalf("fleet report differs from %s; first at line %d:\n got: %q\nwant: %q", path, n+1, gotLines[n], w)
		}
	}
	t.Fatalf("fleet report is a prefix of %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
