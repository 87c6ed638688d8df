// Command bench is the repository's benchmark: four closed-loop workloads,
// each measured in its own child process, every output checked, every
// metric printed by the name BENCHMARK.json gives it. See README.md.
//
//	bash bench/run.sh                                   all four workloads, then the traced pass
//	bash bench/run.sh --workload fleet_vclock --seed 1 --seconds 20 --trace 0
//	go run ./bench -compare a.jsonl b.jsonl             compare two recorded sets of runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	phase    string
	record   string
	compare  bool
}

// outDir receives result.json and trace_<workload>.json; run.sh puts the
// binary and the build cache there too, and .gitignore names it.
var outDir = filepath.Join("bench", "out")

// Child phases: the parent re-executes itself with one of these.
const (
	phaseSetup   = "setup"   // build inputs, boot, one warm-up rep, tear down
	phaseMeasure = "measure" // the same, then the measured window; prints a runResult
)

// setupRuns is how many cold set-ups setup_s is the fastest of. A set-up
// lasts 0.4-0.9 s because it includes the warm-up; set-ups of 0.02-0.5 s
// were what made the previous benchmark's setup_s disagree with itself by
// up to 15.8 % between two sets of runs of one binary. The fastest, not the
// median: like a rep, a set-up is only ever slowed by a neighbour, and over
// two calibration rounds the medians of two sets of ten runs differed by up
// to 16.8 % when each run reported its median set-up, 8.9 % when its fastest.
const setupRuns = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") and print its result line; empty runs all four and the traced pass")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each workload measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
	fs.StringVar(&o.record, "record", "", "append each run's result to this JSON-lines file (the input of -compare)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
	fs.StringVar(&o.phase, "phase", "", "internal: child phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two JSON-lines files")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case o.seconds <= 0 || (o.trace != 0 && o.trace != 1):
		err = fmt.Errorf("bench: want -seconds > 0 and -trace 0 or 1")
	case o.phase != "":
		err = child(o, stdout)
	case o.workload != "":
		err = runOne(o, stdout, stderr)
	default:
		err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runResult is one measured run of one workload, as the child prints it
// and (with the parent's setup_s and peak_rss_mb added) as -record stores it.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	WindowSec float64            `json:"window_s"`
	Segments  int64              `json:"segments"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// WorkDigest fingerprints what the reps produced. It is printed, not
	// pinned: a later behaviour fix must not have to edit the benchmark.
	WorkDigest string      `json:"work_digest"`
	Problems   []string    `json:"problems,omitempty"`
	Noise      noiseReport `json:"noise"`
	// RepRates is every measured rep's segments per second, in order, so a
	// recorded run shows where inside its window a disturbance fell;
	// SetupRuns is every cold set-up's wall time.
	RepRates  []float64 `json:"rep_segments_per_s"`
	SetupRuns []float64 `json:"setup_runs_s,omitempty"`
}

// --- child side ---

// warmUp runs the reps that precede the window and discards their ops.
func warmUp(wl workload, reps int) error {
	for i := 0; i < reps; i++ {
		r, err := wl.rep()
		if err != nil {
			return err
		}
		if len(r.Problems) > 0 {
			return fmt.Errorf("bench: warm-up rep: %s", strings.Join(r.Problems, "; "))
		}
	}
	wl.drainOps(&hist{})
	return nil
}

func child(o options, stdout io.Writer) error {
	size := fullSize()
	in := newInputs(o.seed, size)
	wl, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	res := runResult{Workload: o.workload, Seed: o.seed, Traced: o.trace == 1, Noise: newNoiseReport()}
	if err := wl.setup(in); err != nil {
		return err
	}
	if err := warmUp(wl, size.warmReps(o.workload)); err != nil {
		return err
	}
	if o.phase == phaseSetup {
		return wl.close()
	}
	if o.trace == 0 {
		err = res.measureEndToEnd(wl, o.seconds, size)
	} else {
		err = res.measureLayers(wl, in, o.seconds)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measureEndToEnd is an untraced run: one window over the warmed-up workload.
func (r *runResult) measureEndToEnd(wl workload, seconds float64, size sizing) error {
	minReps, segCap := size.limits(r.Workload)
	w, err := measure(wl, untilSeconds(seconds, minReps, segCap), nil)
	if err != nil {
		return err
	}
	if err := wl.close(); err != nil {
		return err
	}
	r.fill(w, w.Problems)
	r.Metrics = w.endToEndMetrics()
	r.Noise.finish(w)
	return nil
}

// measureLayers is a traced run. The untraced window comes first: its rate
// is what tracing overhead is measured against, and its digest is what the
// traced pass (on the fleet, a benchmark-owned driver) must reproduce.
func (r *runResult) measureLayers(wl workload, in *inputs, seconds float64) error {
	size := in.size
	_, segCap := size.limits(r.Workload)
	capShare := func(share float64) int64 { return int64(float64(segCap) * share) }
	untraced, err := measure(wl, untilSeconds(seconds*(1-tracedShare), 3, capShare(1-tracedShare)), nil)
	if err != nil {
		return err
	}
	if err := wl.close(); err != nil {
		return err
	}
	var bootMs []float64
	if f, ok := wl.(*fleetLoad); ok {
		bootMs = f.bootReconcileMs[size.warmReps(r.Workload):]
	}

	tr := newTracer()
	twl, err := newTracedWorkload(r.Workload, tr)
	if err != nil {
		return err
	}
	if err := twl.setup(in); err != nil {
		return err
	}
	if err := warmUp(twl, size.warmReps(r.Workload)); err != nil {
		return err
	}
	if err := tr.settle(); err != nil {
		return err
	}
	tr.forget() // the warm-up's spans and histograms
	tw, err := measureTraced(twl, tr, size.W, untilSeconds(seconds*tracedShare, 3, capShare(tracedShare)))
	if err != nil {
		return err
	}
	if err := twl.close(); err != nil {
		return err
	}
	problems := append(untraced.Problems, tw.Problems...)
	if r.Workload != wlFleetChaos && tw.Digest != untraced.Digest {
		problems = append(problems, fmt.Sprintf("traced pass produced digest %016x, untraced %016x: it did not do the same work", tw.Digest, untraced.Digest))
	}
	r.fill(tw.window, problems)
	r.Attempted += untraced.Attempted
	r.Failed += untraced.Failed
	if r.Metrics, err = layerMetrics(tw, tr, untraced, bootMs, r.Seed); err != nil {
		return err
	}
	r.Noise.finish(untraced)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return tr.writeTrace(filepath.Join(outDir, "trace_"+r.Workload+".json"))
}

func (r *runResult) fill(w *window, problems []string) {
	r.Reps, r.WindowSec, r.Segments = w.Reps, w.Sec, w.Segments
	r.Attempted, r.Failed = w.Attempted, w.Failed
	r.WorkDigest = fmt.Sprintf("%016x", w.Digest)
	r.Problems, r.RepRates = problems, w.Rates
}

// --- parent side ---

// spawn re-executes this binary as a child in the given phase, with
// GOMAXPROCS pinned to W and the collector at its default setting, and
// returns the child's standard output and resource usage.
func spawn(o options, phase string, stderr io.Writer) ([]byte, *syscall.Rusage, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	cmd := exec.Command(exe,
		"-phase", phase, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace))
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); k != "GOMAXPROCS" && k != "GOGC" && k != "GOMEMLIMIT" && k != "GODEBUG" {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", workers()))
	cmd.Stderr = stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bench: %s child of %s: %w", phase, o.workload, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return out, ru, wall, nil
}

// measureWorkload runs one workload's children and returns its result:
// setupRuns cold set-ups (untraced runs only), then the measuring child.
func measureWorkload(o options, stderr io.Writer) (*runResult, error) {
	if _, err := newWorkload(o.workload); err != nil {
		return nil, err
	}
	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupRuns; i++ {
			_, _, wall, err := spawn(o, phaseSetup, stderr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, wall.Seconds())
		}
	}
	out, ru, _, err := spawn(o, phaseMeasure, stderr)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("bench: reading %s child's result: %w", o.workload, err)
	}
	if o.trace == 0 {
		res.Metrics["setup_s"], res.SetupRuns = slices.Min(setups), setups
		if ru != nil {
			res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	fmt.Fprintf(stderr, "bench: %s seed=%d traced=%t: %d reps, %.1f s window, %d segments, work_digest=%s, noise=%+v\n",
		res.Workload, res.Seed, res.Traced, res.Reps, res.WindowSec, res.Segments, res.WorkDigest, res.Noise)
	if o.record != "" {
		if err := appendRecord(o.record, &res); err != nil {
			return nil, err
		}
	}
	return &res, res.check()
}

// check is the run's verdict: nil only when every correctness check
// passed, no operation failed and every metric of the pass was reported.
func (r *runResult) check() error {
	var errs []error
	for _, p := range r.Problems {
		errs = append(errs, fmt.Errorf("bench: %s: %s", r.Workload, p))
	}
	if r.Failed != 0 {
		errs = append(errs, fmt.Errorf("bench: %s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted))
	}
	if r.Attempted < 1 {
		errs = append(errs, fmt.Errorf("bench: %s attempted no operations", r.Workload))
	}
	for _, d := range metricTable(r.Traced) {
		if _, ok := r.Metrics[d.Name]; !ok {
			errs = append(errs, fmt.Errorf("bench: %s did not report %s", r.Workload, d.Name))
		}
	}
	return errors.Join(errs...)
}

func appendRecord(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload and prints its result line. Nothing is
// printed, and the exit code is non-zero, unless every check passed.
func runOne(o options, stdout, stderr io.Writer) error {
	res, err := measureWorkload(o, stderr)
	if err != nil {
		return err
	}
	line := resultLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range metricTable(res.Traced) {
		line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	printTable(stderr, []*runResult{res}, metricTable(res.Traced))
	return json.NewEncoder(stdout).Encode(line)
}

// runAll is the full benchmark: the four workloads in their fixed order
// with tracing off, then the traced pass of each, one table per pass and
// everything in <out>/result.json.
func runAll(o options, stdout, stderr io.Writer) error {
	var untraced, traced []*runResult
	var errs []error
	for _, pass := range []struct {
		trace   int
		seconds float64
		into    *[]*runResult
	}{
		{0, o.seconds, &untraced},
		// The traced pass is short: it exists to apportion time between
		// layers, not to resolve small differences.
		{1, max(o.seconds/5, 3), &traced},
	} {
		for _, name := range workloadNames {
			po := o
			po.workload, po.trace, po.seconds = name, pass.trace, pass.seconds
			res, err := measureWorkload(po, stderr)
			if err != nil {
				errs = append(errs, err)
			}
			if res != nil {
				*pass.into = append(*pass.into, res)
			}
		}
	}
	fmt.Fprintln(stdout, "end to end (tracing off)")
	printTable(stdout, untraced, endToEnd)
	fmt.Fprintln(stdout, "\nper layer (traced pass)")
	printTable(stdout, traced, perLayer)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{"end_to_end": untraced, "per_layer": traced}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, results []*runResult, defs []metricDef) {
	fmt.Fprintf(w, "%-36s %-6s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %-6s", d.Name, d.Unit)
		for _, r := range results {
			fmt.Fprintf(w, " %14.4f", r.Metrics[d.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %-6s", "failed_share", "ratio")
	for _, r := range results {
		fmt.Fprintf(w, " %14.4f", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintln(w)
}
