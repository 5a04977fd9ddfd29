package main

import (
	"fmt"
	"os"
)

// runAA runs the whole untraced suite twice on this code and prints, per
// workload and metric, both values, their relative difference in the
// metric's worse direction, and the bound. A workload's two runs follow
// each other directly, because the box drifts over minutes. It returns the
// exit code: non-zero if any difference exceeds its bound or any operation
// failed.
func runAA(seed int64, seconds int) int {
	runs := [2]map[string]*runResult{{}, {}}
	for _, sp := range specs {
		for i := range runs {
			fmt.Printf("\n-- A/A run %d of 2: %s --\n", i+1, sp.name)
			r, err := runUntraced(sp, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			printUntraced(r)
			runs[i][sp.name] = r
		}
	}
	code := 0
	fmt.Printf("\n== A/A: two runs of the same code, seed %d, %d s windows ==\n", seed, seconds)
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, sp := range specs {
		a, b := runs[0][sp.name], runs[1][sp.name]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > d.Bound || -worse > d.Bound {
				verdict, code = "  EXCEEDS BOUND", 1
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", sp.name, d.Name, x, y, worse*100, d.Bound*100, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-18s failed operations: %d and %d\n", sp.name, a.Failed, b.Failed)
			code = 1
		}
	}
	return code
}
