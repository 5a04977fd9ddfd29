// Command orchestra-bench regenerates the paper's evaluation figures
// (§VI): it runs each experiment's sweep on a simulated local cluster and
// prints the same rows/series the paper plots.
//
// Usage:
//
//	orchestra-bench -figure fig7            # one figure, laptop scale
//	orchestra-bench -figure all -v          # every figure
//	orchestra-bench -figure fig10 -paper    # paper-scale parameters (slow)
//	orchestra-bench -figure all -markdown   # Markdown tables
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"orchestra/internal/bench"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure id or 'all' (ids: fig2 fig7..fig21 lat ovh fdet)")
		paper    = flag.Bool("paper", false, "use paper-scale parameters (much slower)")
		verbose  = flag.Bool("v", false, "log progress")
		markdown = flag.Bool("markdown", false, "emit Markdown tables")
		stTuples = flag.Int("st-tuples", 0, "override STBenchmark tuples/relation")
		sf       = flag.Float64("sf", 0, "override TPC-H scale factor")
	)
	flag.Parse()

	cfg := bench.Config{Verbose: *verbose, Out: os.Stderr}
	if *paper {
		cfg.STBTuples = 800_000
		cfg.TPCHScale = 0.5
		cfg.Nodes = []int{1, 2, 4, 8, 16}
	}
	if *stTuples > 0 {
		cfg.STBTuples = *stTuples
	}
	if *sf > 0 {
		cfg.TPCHScale = *sf
	}

	ids := []string{*figure}
	if *figure == "all" {
		ids = bench.FigureIDs()
	}
	start := time.Now()
	for _, id := range ids {
		fig, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orchestra-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Print(bench.Markdown(fig))
		} else {
			bench.Render(os.Stdout, fig)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "# total %s\n", time.Since(start).Round(time.Millisecond))
	}
}
