// Command perfbench is the repository benchmark. It serves one of four
// generated spatial-keyword workloads through an in-process spq engine
// behind the serve package's binary protocol, checks every response (a
// seeded sample on the ingest workload) against the centralized oracle of
// internal/core, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload selective --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics: the window alternates untraced
// and traced slices, spans are recorded from this package around calls
// into each layer, and the qps difference between the slice kinds is the
// tracing overhead. Workloads and metrics are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: selective, scan, ingest or distributed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data, query stream and appends")
	seconds := flag.Int("seconds", 20, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the reference cache and trace files")
	flag.Parse()
	o.window = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	o.scale = scales["full"]
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	timer := time.AfterFunc(runLimit, func() { fatalf("run exceeded %s", runLimit) })
	defer timer.Stop()

	res, info, err := run(o)
	if err != nil && res == nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if encErr := enc.Encode(map[string]any{"info": info}); encErr != nil {
		fatalf("write info: %v", encErr)
	}
	if encErr := enc.Encode(res); encErr != nil {
		fatalf("write result: %v", encErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errMismatch marks a run whose responses disagree with the oracle.
var errMismatch = errors.New("responses disagree with the oracle")
