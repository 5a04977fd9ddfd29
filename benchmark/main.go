// Command benchmark is this repository's one benchmark: it self-hosts a
// 3-node cluster served on loopback, drives one of four named workloads
// over two connections, checks every answer against the generator's
// model, and prints the end-to-end metrics (tracing off) or the
// per-layer metrics (-trace 1). See README.md beside this file.
//
//	go run -C benchmark . -workload hot-1k.n3 -seed 1 -seconds 20 -trace 0
//	go run -C benchmark . -seed 1            # all four workloads
//	go run -C benchmark . -trace 1 -seed 1   # per-layer run of all four
//	go run -C benchmark . -aa                # the untraced suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef mirrors one metric entry of BENCHMARK.json (a test keeps the
// two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated, client-observed metrics; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"first_batch_p50_ms", "ms", "lower", 0.25},
	{"publish_p50_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_row", "B/row", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload
// run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded in every result file.
type environment struct {
	Seed        int64   `json:"seed"`
	Commit      string  `json:"commit"`
	Nproc       int     `json:"nproc"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	WarmupS     float64 `json:"warmup_s"`
	WindowS     int     `json:"window_s"`
	FlushPolicy string  `json:"flush_policy"`
}

func currentEnvironment(seed int64, seconds int) environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Seed: seed, Commit: commit, Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), WarmupS: warmup.Seconds(), WindowS: seconds,
		FlushPolicy: "publish-mixed.n3: WAL SyncAlways (fsync before every acknowledgement); other workloads in memory",
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func lineOf(defs []metricDef, values map[string]float64, attempted, failed int) resultLine {
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return line
}

func printUntraced(r *runResult) {
	fmt.Printf("\n== %s: end-to-end (tracing off) ==\n", r.Workload)
	for _, d := range endToEnd {
		fmt.Printf("  %-20s %14.4f %-6s (%s is better, bound %g%%)\n", d.Name, r.Metrics[d.Name], d.Unit, d.Better, d.Bound*100)
	}
	fmt.Printf("  %-20s %14.6f        (%d failed of %d attempted)\n", "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for class, cs := range r.Classes {
		fmt.Printf("  class %-15s full result %s; first batch %s; %d rows, %d bytes\n", class, cs.Latency, cs.FirstBatch, cs.Rows, cs.Bytes)
	}
	if r.Publish != nil {
		fmt.Printf("  publish         from due time %s; generator lateness %s\n", *r.Publish, *r.LatenessMs)
		fmt.Printf("  reopen          %.3f s to restart from the data directory and count the acknowledged rows\n", r.ReopenS)
	}
	fmt.Printf("  set-ups         %.3f s each; view-cache hit ratio in window %.4f\n", r.SetupS, r.ViewHits)
	if r.Behind > 0 {
		fmt.Printf("  %d answers were the snapshot one publish before their epoch (known defect, see README.md)\n", r.Behind)
	}
	for class, text := range r.FirstErrors {
		fmt.Printf("  FIRST ERROR %-8s %s\n", class, text)
	}
}

// runOne runs one workload in the chosen mode, prints its report, writes
// its result file and returns the result line.
func runOne(sp spec, seed int64, seconds int, trace bool) (resultLine, error) {
	env := currentEnvironment(seed, seconds)
	if trace {
		return runTraced(sp, seed, env)
	}
	r, err := runUntraced(sp, seed, seconds)
	if err != nil {
		return resultLine{}, err
	}
	printUntraced(r)
	path := filepath.Join(outDir, "result-"+sp.name+".json")
	if err := writeJSON(path, struct {
		Environment environment `json:"environment"`
		*runResult
	}{env, r}); err != nil {
		return resultLine{}, err
	}
	fmt.Printf("  result file     %s\n", path)
	return lineOf(endToEnd, r.Metrics, r.Attempted, r.Failed), nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: single-client traced run printing per-layer metrics; 0: end-to-end run")
	aa := flag.Bool("aa", false, "run the untraced suite twice on this code and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	run := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []spec{sp}
	}
	failed := false
	for _, sp := range run {
		line, err := runOne(sp, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		failed = failed || !line.Correct
		data, _ := json.Marshal(line) // a struct of numbers and strings cannot fail to marshal
		fmt.Println(string(data))
	}
	if failed {
		os.Exit(1)
	}
}
