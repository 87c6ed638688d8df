// Command senseibench regenerates the paper's tables and figures.
//
// Usage:
//
//	senseibench [-mode quick|full] [experiment ...]
//
// With no arguments it runs every experiment. Experiment ids: table1, fig1,
// fig2, fig3, fig4, fig5, fig6, fig12a, fig12b, fig12c, fig13, fig14,
// fig15, fig16, fig17, fig18, fig20, sanity, appendixb.
//
// Performance is measured by bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sensei/internal/experiments"
)

func main() {
	mode := flag.String("mode", "quick", "experiment scale: quick or full")
	flag.Parse()

	var labMode experiments.Mode
	switch *mode {
	case "quick":
		labMode = experiments.Quick
	case "full":
		labMode = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "senseibench: unknown mode %q (want quick or full)\n", *mode)
		os.Exit(2)
	}
	lab := experiments.NewLab(labMode)

	runners := make(map[string]func(*experiments.Lab) (string, error), len(experiments.All))
	var ids []string
	for _, e := range experiments.All {
		runners[e.ID] = e.Run
		ids = append(ids, e.ID)
	}
	if flag.NArg() > 0 {
		ids = flag.Args()
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "senseibench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		out, err := run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "senseibench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}
