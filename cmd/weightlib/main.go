// Command weightlib runs the §4 crowdsourcing campaign offline and writes
// each video's weights into an origin weight directory: the same
// <video>.weights.json files dashserver -weightdir boots from, so an origin
// started on that directory serves the campaign's weights without running
// one (the video-management integration of Fig 7). A video with no file is
// profiled into epoch 1; a video that already has one is re-profiled into
// its next epoch, the same versioning the live origin serves.
//
// Usage:
//
//	weightlib [-weightdir weights] [-videos Soccer1,Tank] [-pop 30000]
//	weightlib -verify [-weightdir weights] [-videos Soccer1,Tank]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sensei"
	"sensei/internal/origin"
)

func main() {
	dir := flag.String("weightdir", "weights", "origin weight directory to profile into (dashserver's -weightdir)")
	names := flag.String("videos", "", "comma-separated catalog names (default: whole catalog)")
	popSize := flag.Int("pop", 30000, "rater population size")
	verify := flag.Bool("verify", false, "check each listed video's weight file with the origin's reader and exit")
	flag.Parse()

	videos := sensei.VideoCatalog()
	if *names != "" {
		videos = nil
		for _, name := range strings.Split(*names, ",") {
			v, err := sensei.VideoByName(strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			videos = append(videos, v)
		}
	}

	if *verify {
		bad := 0
		for _, v := range videos {
			p, err := origin.ReadWeights(*dir, v)
			if err != nil {
				fmt.Printf("  %-14s %v\n", v.Name, err)
				bad++
				continue
			}
			fmt.Printf("  %-14s epoch %-3d %3d chunks\n", v.Name, p.Epoch, len(p.Weights))
		}
		if bad > 0 {
			fail(fmt.Errorf("%d of %d weight files in %s missing or invalid", bad, len(videos), *dir))
		}
		fmt.Printf("%s OK: %d videos\n", *dir, len(videos))
		return
	}

	pop, err := sensei.NewPopulation(sensei.PopulationConfig{Size: *popSize, Seed: 0x717})
	if err != nil {
		fail(err)
	}
	profiler := sensei.NewProfiler(pop)
	var cost float64
	profile := func(v *sensei.Video) ([]float64, error) {
		p, err := profiler.Profile(v)
		if err != nil {
			return nil, err
		}
		cost = p.CostUSD
		return p.Weights, nil
	}
	// The service logs only a failed weight-file write, which would lose
	// the campaign: here that is fatal.
	svc := origin.NewWeightService(*dir, profile, func(format string, args ...any) {
		fail(fmt.Errorf(format, args...))
	})

	var total float64
	for _, v := range videos {
		cost = 0
		loads := svc.DiskLoads()
		p, err := svc.Get(v) // no file: profiled cold into epoch 1
		if err == nil && svc.DiskLoads() > loads {
			// Already profiled: the fresh campaign is the next epoch.
			var w []float64
			if w, err = profile(v); err == nil {
				p, err = svc.Publish(v, w)
			}
		}
		if err != nil {
			fail(err)
		}
		total += cost
		fmt.Printf("profiled %-14s epoch %-3d %3d chunks  $%6.1f\n", v.Name, p.Epoch, len(p.Weights), cost)
	}
	fmt.Printf("%s: %d videos profiled, total campaign cost $%.1f\n", *dir, len(videos), total)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "weightlib:", err)
	os.Exit(1)
}
