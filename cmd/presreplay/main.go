// Presreplay runs the PRES intelligent replayer on a recording written
// by presrun: it explores the unrecorded non-deterministic space with
// feedback from failed attempts until the bug reproduces, then verifies
// the captured full order replays deterministically.
//
// Usage:
//
//	presreplay -app mysqld -bug mysql-169 run.pres
//	presreplay -app mysqld -bug mysql-169 -seed 7 -from-checkpoint run.pres
//
// An epoch-ring recording (presrun -epoch-steps/-epoch-ring/
// -checkpoint-every) additionally carries checkpoints; -from-checkpoint
// starts every attempt at the newest one, which needs the recording's
// schedule seed (-seed) to re-execute the prefix deterministically.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
	"repro/internal/cliprof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presreplay: ")

	appName := flag.String("app", "", "corpus application the recording is of")
	bugID := flag.String("bug", "", "target bug id (empty accepts any manifested bug)")
	procs := flag.Int("procs", 4, "processor count used for the recording")
	scale := flag.Int("scale", 0, "workload scale used for the recording")
	worldSeed := flag.Int64("world-seed", 1, "world seed used for the recording")
	seed := flag.Int64("seed", 0, "schedule seed used for the recording (required by -from-checkpoint's prefix re-execution)")
	fromCP := flag.Bool("from-checkpoint", false, "start every attempt at the recording's newest retained checkpoint instead of process start")
	maxAttempts := flag.Int("max-attempts", 1000, "replay attempt budget")
	noFeedback := flag.Bool("no-feedback", false, "disable feedback (random exploration ablation)")
	verify := flag.Int("verify", 3, "re-replays of the captured order after success")
	simplify := flag.Bool("simplify", true, "minimize context switches in the captured schedule")
	workers := flag.Int("workers", 1, "work-stealing attempt workers (1 = exact sequential search)")
	adaptive := flag.Bool("adaptive", false, "let the worker pool retune itself from measured occupancy")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the search (0 = none); SIGINT also cancels gracefully")
	cacheSize := flag.Int("search-cache", 0, "schedule-cache capacity in attempts (0 disables, -1 = default size)")
	verbose := flag.Bool("v", false, "print each replay attempt as it completes")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot to this file")
	metricsFormat := flag.String("metrics-format", "json", "metrics snapshot format: json or prom")
	traceOut := flag.String("trace-out", "", "write a JSONL attempt trace to this file (see OBSERVABILITY.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the search and verification to this file")
	flag.Parse()

	// The profile is flushed on every exit path: failures exit through
	// prof.Fatalf/prof.Exit rather than log.Fatal, which skips defers.
	prof, err := cliprof.Start(*cpuProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	if *appName == "" || flag.NArg() != 1 {
		prof.Fatalf("usage: presreplay -app <name> [-bug <id>] <recording-file>")
	}
	if *metricsFormat != "json" && *metricsFormat != "prom" && *metricsFormat != "prometheus" {
		prof.Fatalf("unknown -metrics-format %q (want json or prom)", *metricsFormat)
	}
	prog, ok := repro.GetProgram(*appName)
	if !ok {
		prof.Fatalf("unknown application %q (see preslist)", *appName)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		prof.Fatalf("%v", err)
	}
	defer f.Close()
	rec, err := repro.ReadRecording(f, repro.Options{
		Processors:   *procs,
		WorldSeed:    *worldSeed,
		Scale:        *scale,
		ScheduleSeed: *seed,
	})
	if err != nil {
		prof.Fatalf("%v", err)
	}
	if err := rec.Validate(); err != nil {
		prof.Fatalf("recording failed validation: %v", err)
	}
	fmt.Printf("recording: scheme=%v entries=%d inputs=%d\n",
		rec.Scheme, rec.Sketch.Len(), rec.Inputs.Len())
	if ring := rec.Epochs; ring != nil {
		fmt.Printf("epochs: %d retained (+%d evicted), %d checkpoints, window=%d entries\n",
			len(ring.Epochs), ring.Evicted, len(ring.Checkpoints), ring.WindowLen())
	}
	if *fromCP {
		if rec.Epochs == nil || len(rec.Epochs.Checkpoints) == 0 {
			log.Print("warning: -from-checkpoint set but the recording carries no checkpoints; replaying from process start")
		} else if cp := rec.Epochs.Checkpoints[len(rec.Epochs.Checkpoints)-1]; true {
			fmt.Printf("replaying from checkpoint at epoch %d (step %d, %d inputs consumed)\n",
				cp.Epoch, cp.Step, cp.InputIndex)
		}
	}

	// The search context: -timeout bounds the wall clock, and SIGINT
	// cancels cooperatively — either way the pool drains, the committed
	// attempt prefix is reported, and the sinks below still flush.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	var oracle repro.Oracle
	if *bugID != "" {
		oracle = repro.MatchBugID(*bugID)
	}
	ropts := repro.ReplayOptions{
		Feedback:        !*noFeedback,
		MaxAttempts:     *maxAttempts,
		Oracle:          oracle,
		Workers:         *workers,
		AdaptiveWorkers: *adaptive,
		FromCheckpoint:  *fromCP,
	}
	var cache *repro.SearchCache
	if *cacheSize != 0 {
		size := *cacheSize
		if size < 0 {
			size = 0 // NewSearchCache's default capacity
		}
		cache = repro.NewSearchCache(size)
		ropts.Cache = cache
	}
	if *verbose {
		ropts.OnAttempt = func(i int, mode, outcome string) {
			fmt.Printf("  attempt %-4d %-8s %s\n", i, mode, outcome)
		}
	}

	// Observability sinks (see OBSERVABILITY.md for the contract). Both
	// are flushed on every exit path, including a failed search — a
	// search that exhausted its budget is exactly the one worth
	// diffing against a run that succeeded.
	var reg *repro.MetricsRegistry
	if *metricsOut != "" {
		reg = repro.NewMetricsRegistry()
		ropts.Metrics = reg
	}
	var traceFile *os.File
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			prof.Fatalf("%v", err)
		}
		traceFile = tf
		ropts.Trace = repro.NewTraceSink(tf)
	}
	flush := func() {
		if cache != nil {
			hits, misses := cache.Stats()
			fmt.Printf("schedule cache: %d hits, %d misses, %d entries\n", hits, misses, cache.Len())
		}
		if ropts.Trace != nil {
			if err := ropts.Trace.Err(); err != nil {
				log.Printf("trace: %v", err)
			}
			if err := traceFile.Close(); err != nil {
				log.Printf("trace: %v", err)
			}
			fmt.Printf("attempt trace written to %s (%d events)\n", *traceOut, ropts.Trace.Events())
		}
		if reg != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				prof.Fatalf("%v", err)
			}
			if err := repro.WriteMetrics(f, reg, *metricsFormat); err != nil {
				prof.Fatalf("%v", err)
			}
			if err := f.Close(); err != nil {
				prof.Fatalf("%v", err)
			}
			fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
		}
	}

	res := repro.ReplayContext(ctx, prog, rec, ropts)
	if !res.Reproduced {
		if res.Err != nil {
			fmt.Printf("search interrupted (%v) after %d committed attempts (%+v)\n",
				res.Err, res.Attempts, res.Stats)
		} else {
			fmt.Printf("NOT reproduced within %d attempts (%+v)\n", res.Attempts, res.Stats)
			fmt.Printf("advice: %s\n", repro.Advise(rec, res))
		}
		flush()
		prof.Exit(1)
	}
	fmt.Printf("reproduced in %d attempts (%d race flips): %v\n", res.Attempts, res.Flips, res.Failure)
	if res.Stats.Steps > 0 {
		fmt.Printf("  scheduler: %d steps, %d handoffs (%.3f/step), %d fast-path steps\n",
			res.Stats.Steps, res.Stats.Handoffs,
			float64(res.Stats.Handoffs)/float64(res.Stats.Steps), res.Stats.FastPathSteps)
	}
	for _, rc := range res.RootCauses {
		fmt.Printf("  root-cause race: %v\n", rc)
	}

	ok = true
	for i := 0; i < *verify; i++ {
		out := repro.Reproduce(prog, rec, res.Order)
		if out.Failure == nil || !out.Failure.IsBug() {
			ok = false
			break
		}
	}
	if !ok {
		prof.Fatalf("captured order did not re-reproduce — this is a bug in the replayer")
	}
	fmt.Printf("captured order re-reproduced the failure %d/%d times\n", *verify, *verify)

	if *simplify {
		before := repro.Switches(res.Order)
		simple, spent := repro.Simplify(prog, rec, res.Order, 0)
		fmt.Printf("simplified schedule: %d -> %d context switches (%d re-executions)\n",
			before, repro.Switches(simple), spent)
	}

	flush()
}
