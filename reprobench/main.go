// Command reprobench is the repository benchmark: host wall-clock from
// a production run to a verified reproduction over the whole bug
// corpus, plus a traced mode that attributes the time to the modules
// (sched, sketch, trace, race, core, search, exec, obs).
//
// It drives the public entry points the way presrun and presreplay do
// (core.Record, Recording.Write, core.ReadRecording, core.Replay,
// core.Reproduce), one operation at a time: a closed loop with a single
// client. Every operation is checked outside its timed span.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash reprobench/run.sh --workload diagnose --seed 1 --seconds 20 --trace 0
//
// The workloads are record, diagnose and always-on; BENCHMARK.json
// names them and their metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// runDeadline bounds a whole run: a hung operation ends the process
// with a non-zero status instead of a result line.
const runDeadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is the header line printed before any measurement.
type hostInfo struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Workers        int    `json:"replay_workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func main() {
	name := flag.String("workload", "", "workload to run: record, diagnose or always-on")
	seed := flag.Int64("seed", 1, "workload seed; it picks the production schedule seeds")
	seconds := flag.Int("seconds", 20, "measured wall time per run (whole passes over the inputs)")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 reports per-layer metrics")
	flag.Parse()

	if *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "reprobench: --seconds must be >= 0 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprobench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "reprobench: run exceeded %v; aborting\n", runDeadline)
		os.Exit(3)
	})

	host := hostHeader()
	if host.Oversubscribed {
		fmt.Fprintf(os.Stderr, "reprobench: GOMAXPROCS %d or %d replay workers exceed NumCPU %d; figures measure contention, not scaling\n",
			host.GOMAXPROCS, host.Workers, host.NumCPU)
	}
	head, _ := json.Marshal(map[string]hostInfo{"host": host})
	fmt.Println(string(head))

	dur := time.Duration(*seconds) * time.Second
	run := runEndToEnd
	if *traced == 1 {
		run = runTraced
	}
	res, err := run(w, fullSize, *seed, dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprobench:", err)
		os.Exit(1)
	}
	if *traced == 1 {
		printLayerTable(os.Stderr, *name, res.Metrics)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "reprobench: metric %s is not finite\n", k)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostHeader describes the host the figures are taken on, and flags a
// configuration that asks for more parallelism than the host has.
func hostHeader() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    replayWorkers(),
	}
	h.Oversubscribed = h.GOMAXPROCS > h.NumCPU || h.Workers > h.NumCPU
	return h
}

// replayWorkers is the always-on workload's pool width: one worker per
// CPU the runtime may use, never more than the host has.
func replayWorkers() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
