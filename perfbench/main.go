// Command perfbench is the repository's benchmark: it drives the system only
// through its public functions, times them from outside, checks every
// output, and prints one JSON result line (see README.md).
//
//	perfbench --workload tpch-batch --seed 1 --seconds 30 --trace 0
//	perfbench --compare runs/base runs/change
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runOptions are one run's settings.
type runOptions struct {
	seed            int64
	duration        time.Duration
	trace           bool
	setups          int // set-ups per run; setup_s is their median
	oracleCustomers int // size of the instance checked against nrc.Eval
	traceDir        string
	traceName       string
}

// workloads maps each workload name to its full-size runner.
var workloads = map[string]func(runOptions, io.Writer) (result, error){
	"tpch-batch":  batchWorkload(1500).run,
	"tpch-skew":   skewWorkload(3000, 4).run,
	"serve-adhoc": defaultServe().run,
}

// finish builds the result line from a run's metrics: the end-to-end
// metrics without tracing, the per-layer metrics with it.
func finish(m metricSet, o runOptions, attempted, failed int) result {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.output(defs)}
}

func main() {
	workload := flag.String("workload", "", "workload to run: tpch-batch, tpch-skew or serve-adhoc")
	seed := flag.Int64("seed", 1, "seed of the data generators and the request sequence")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark declaration with the metrics' bounds (compare mode)")
	compare := flag.Bool("compare", false, "compare two directories of saved run outputs: --compare BASE CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: perfbench --compare BASE_DIR CHANGE_DIR")
			os.Exit(2)
		}
		if err := compareRuns(*spec, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tpch-batch|tpch-skew|serve-adhoc --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := runOptions{
		seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		setups: 5, oracleCustomers: 12,
		traceDir: *traceDir, traceName: fmt.Sprintf("%s.seed%d", *workload, *seed),
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
