// Presperf measures the repo's performance claims and writes them to a
// JSON file (BENCH_pr10.json via the Makefile bench target):
//
//  1. sketch-encoder density and speed per scheme, v1 vs v2, on a real
//     recorded mysqld production run;
//  2. experiment-matrix wall-clock (E2 and E8) at -j 1 vs -j
//     GOMAXPROCS, with a byte-identity check on the rendered tables;
//  3. the run-grant fast path: per-app production recording
//     (FixBugs=true, like the E2 overhead runs) before vs after —
//     before is the pre-batching scheduler (SingleStep+NoBatch: one
//     pick, one handoff, and fresh per-step allocations per committed
//     op), after is the default fast path with declared batches.
//     Reported per app: steps/sec, handoffs/step, allocs/step, and the
//     fraction of steps committed without a fresh pick.
//  4. the record path, global log vs per-thread shards
//     (Options.PerThreadLog): for a fleet of concurrent production
//     recordings — the production framing where many recorded
//     executions share one machine — aggregate steps/sec at each
//     GOMAXPROCS, in both modes, plus each mode's modelled recording
//     overhead and a byte-identity check on the recordings;
//  5. the always-on record path: per-app production recording with the
//     epoch ring off (classic whole-execution log) vs on (bounded ring
//     with periodic world checkpoints) — real steps/sec, modelled
//     overhead, and the retained-window size each way.
//
// Sections 3 and 4 run once per -procs setting (comma-separated
// GOMAXPROCS values): section 3 repeats its per-app before/after runs
// at each setting, section 4 sweeps its recording fleet across them.
// A setting above the host's CPU count is oversubscribed: it measures
// contention, not scaling, so presperf warns about it and marks the
// rows it produced with above_num_cpu.
//
// The report header records the host the numbers were taken on
// (GOMAXPROCS, CPU count, OS/arch, Go version, hostname).
//
// Usage:
//
//	presperf -out BENCH_pr10.json -procs 1,2,4
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

type encodeResult struct {
	Scheme          string  `json:"scheme"`
	Entries         int     `json:"entries"`
	V1Bytes         int     `json:"v1_bytes"`
	V2Bytes         int     `json:"v2_bytes"`
	V1BytesPerEntry float64 `json:"v1_bytes_per_entry"`
	V2BytesPerEntry float64 `json:"v2_bytes_per_entry"`
	SavingPct       float64 `json:"saving_pct"`
	V1NsPerEntry    float64 `json:"v1_ns_per_entry"`
	V2NsPerEntry    float64 `json:"v2_ns_per_entry"`
}

type harnessResult struct {
	Exp             string  `json:"exp"`
	Jobs            int     `json:"jobs"`
	J1Millis        float64 `json:"j1_ms"`
	JMaxMillis      float64 `json:"jmax_ms"`
	Speedup         float64 `json:"speedup"`
	TablesIdentical bool    `json:"tables_identical"`
}

type schedResult struct {
	App                   string  `json:"app"`
	Procs                 int     `json:"gomaxprocs,omitempty"`
	AboveNumCPU           bool    `json:"above_num_cpu,omitempty"`
	BeforeSteps           uint64  `json:"before_steps"`
	AfterSteps            uint64  `json:"after_steps"`
	BeforeStepsPerSec     float64 `json:"before_steps_per_sec"`
	AfterStepsPerSec      float64 `json:"after_steps_per_sec"`
	Speedup               float64 `json:"speedup"`
	BeforeHandoffsPerStep float64 `json:"before_handoffs_per_step"`
	AfterHandoffsPerStep  float64 `json:"after_handoffs_per_step"`
	BeforeAllocsPerStep   float64 `json:"before_allocs_per_step"`
	AfterAllocsPerStep    float64 `json:"after_allocs_per_step"`
	FastPathStepFrac      float64 `json:"fastpath_step_frac"`
}

type recordSweepPoint struct {
	Procs                int     `json:"gomaxprocs"`
	AboveNumCPU          bool    `json:"above_num_cpu,omitempty"`
	GlobalStepsPerSec    float64 `json:"global_steps_per_sec"`
	PerThreadStepsPerSec float64 `json:"per_thread_steps_per_sec"`
}

type recordResult struct {
	App                  string  `json:"app"`
	Scheme               string  `json:"scheme"`
	Fleet                int     `json:"fleet"` // concurrent recordings per measurement
	StepsPerRun          uint64  `json:"steps_per_run"`
	GlobalOverheadPct    float64 `json:"global_overhead_pct"`
	PerThreadOverheadPct float64 `json:"per_thread_overhead_pct"`
	EpochSeals           uint64  `json:"epoch_seals"`
	BytesIdentical       bool    `json:"bytes_identical"`
	// Sweep holds aggregate fleet throughput per GOMAXPROCS setting;
	// the speedups compare each mode's max-procs point to its 1-proc
	// point.
	Sweep            []recordSweepPoint `json:"sweep"`
	GlobalSpeedup    float64            `json:"gomaxprocs_speedup_global"`
	PerThreadSpeedup float64            `json:"gomaxprocs_speedup_per_thread"`
}

// epochRecordResult is the always-on record path, epoch ring off vs
// on, for one app: real recording throughput, the modelled overhead,
// and what the bounded window retains.
type epochRecordResult struct {
	App                string  `json:"app"`
	Scheme             string  `json:"scheme"`
	Steps              uint64  `json:"steps"`
	ClassicStepsPerSec float64 `json:"classic_steps_per_sec"`
	RingStepsPerSec    float64 `json:"ring_steps_per_sec"`
	RingCostPct        float64 `json:"ring_cost_pct"` // wall-clock cost of sealing+checkpointing
	ClassicOverheadPct float64 `json:"classic_overhead_pct"`
	RingOverheadPct    float64 `json:"ring_overhead_pct"`
	EpochSteps         uint64  `json:"epoch_steps"`
	RingSize           int     `json:"ring_size"`
	Epochs             int     `json:"epochs_retained"`
	Evicted            uint64  `json:"epochs_evicted"`
	Checkpoints        int     `json:"checkpoints"`
	WindowEntries      int     `json:"window_entries"`
	TotalEntries       int     `json:"classic_entries"`
}

type report struct {
	Tool       string              `json:"tool"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	GoVersion  string              `json:"go_version"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	Hostname   string              `json:"hostname,omitempty"`
	Encode     []encodeResult      `json:"encode"`
	Harness    []harnessResult     `json:"harness"`
	Sched      []schedResult       `json:"sched"`
	Record     []recordResult      `json:"record"`
	EpochRing  []epochRecordResult `json:"epoch_ring"`
}

// countWriter measures encoded size without retaining bytes.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("presperf: ")
	out := flag.String("out", "BENCH_pr10.json", "output JSON path")
	scale := flag.Int("scale", 400, "workload scale for the recorded run")
	overheadScale := flag.Int("overhead-scale", 150, "workload scale for the harness matrix timing")
	schedScale := flag.Int("sched-scale", 300, "workload scale for the fast-path before/after runs")
	reps := flag.Int("reps", 3, "timing repetitions (best-of)")
	procsFlag := flag.String("procs", "1,2,4", "comma-separated GOMAXPROCS settings for the sched and record sections")
	flag.Parse()

	procsList, err := parseProcs(*procsFlag)
	if err != nil {
		log.Fatalf("-procs %q: %v", *procsFlag, err)
	}
	for _, p := range procsList {
		if p > runtime.NumCPU() {
			log.Printf("warning: -procs %d exceeds NumCPU %d: its rows measure contention, not scaling (marked above_num_cpu)", p, runtime.NumCPU())
		}
	}

	rep := report{
		Tool:       "presperf",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if host, err := os.Hostname(); err == nil {
		rep.Hostname = host
	}

	prog, ok := apps.Get("mysqld")
	if !ok {
		log.Fatal("mysqld not in corpus")
	}
	for _, s := range []sketch.Scheme{sketch.SYNC, sketch.SYS, sketch.FUNC, sketch.BB, sketch.RW} {
		rec := core.Record(prog, core.Options{
			Scheme:       s,
			Processors:   4,
			ScheduleSeed: 1,
			WorldSeed:    1,
			Scale:        *scale,
			MaxSteps:     5_000_000,
			FixBugs:      true,
		})
		l := rec.Sketch
		if l.Len() == 0 {
			log.Fatalf("%v sketch empty", s)
		}
		r := encodeResult{Scheme: s.String(), Entries: l.Len()}
		var cw countWriter
		if err := trace.EncodeSketchV1(&cw, l); err != nil {
			log.Fatal(err)
		}
		r.V1Bytes = cw.n
		cw.n = 0
		if err := trace.EncodeSketch(&cw, l); err != nil {
			log.Fatal(err)
		}
		r.V2Bytes = cw.n
		r.V1BytesPerEntry = float64(r.V1Bytes) / float64(r.Entries)
		r.V2BytesPerEntry = float64(r.V2Bytes) / float64(r.Entries)
		r.SavingPct = 100 * (1 - float64(r.V2Bytes)/float64(r.V1Bytes))
		r.V1NsPerEntry = timeEncode(l, trace.EncodeSketchV1)
		r.V2NsPerEntry = timeEncode(l, trace.EncodeSketch)
		rep.Encode = append(rep.Encode, r)
		fmt.Printf("encode %-5s %7d entries  v1 %.2f B/e  v2 %.2f B/e  (-%.0f%%)  %.1f -> %.1f ns/e\n",
			s, r.Entries, r.V1BytesPerEntry, r.V2BytesPerEntry, r.SavingPct, r.V1NsPerEntry, r.V2NsPerEntry)
	}

	cfg := harness.Config{SeedBudget: 2000, MaxAttempts: 1000, OverheadScale: *overheadScale}
	rep.Harness = append(rep.Harness,
		timeMatrix("e2", cfg, *reps, func(c harness.Config) []byte {
			var buf bytes.Buffer
			harness.PrintE2(&buf, harness.RunE2(nil, c))
			return buf.Bytes()
		}),
		timeMatrix("e8", cfg, *reps, func(c harness.Config) []byte {
			var buf bytes.Buffer
			harness.PrintE8(&buf, harness.RunE8(c))
			return buf.Bytes()
		}),
	)

	prevProcs := runtime.GOMAXPROCS(0)
	for _, p := range procsList {
		runtime.GOMAXPROCS(p)
		for _, prog := range apps.All() {
			r := timeSched(prog, *schedScale, *reps)
			r.Procs = p
			r.AboveNumCPU = p > runtime.NumCPU()
			rep.Sched = append(rep.Sched, r)
			fmt.Printf("sched %-13s @%dprocs %6.2fx steps/s (%.2fM -> %.2fM)  handoffs/step %.3f -> %.3f  allocs/step %.2f -> %.2f  fastpath %.0f%%\n",
				r.App, p, r.Speedup, r.BeforeStepsPerSec/1e6, r.AfterStepsPerSec/1e6,
				r.BeforeHandoffsPerStep, r.AfterHandoffsPerStep,
				r.BeforeAllocsPerStep, r.AfterAllocsPerStep, 100*r.FastPathStepFrac)
		}
	}
	runtime.GOMAXPROCS(prevProcs)

	// Record path, global vs per-thread logs: compute kernels record RW
	// (the dense sketch the per-thread log exists for); the server/
	// utility apps record SYNC.
	for _, rc := range []struct {
		app    string
		scheme sketch.Scheme
	}{
		{"fft", sketch.RW},
		{"lu", sketch.RW},
		{"barnes", sketch.RW},
		{"mysqld", sketch.SYNC},
		{"pbzip2", sketch.SYNC},
	} {
		prog, ok := apps.Get(rc.app)
		if !ok {
			log.Fatalf("%s not in corpus", rc.app)
		}
		r := timeRecordFleet(prog, rc.scheme, *schedScale, *reps, procsList)
		rep.Record = append(rep.Record, r)
		last := r.Sweep[len(r.Sweep)-1]
		fmt.Printf("record %-9s %-4s fleet=%d  @%dprocs %.2fM -> %.2fM steps/s  scaling x%.2f/x%.2f  overhead %.1f%% -> %.1f%%  seals=%d identical=%v\n",
			r.App, r.Scheme, r.Fleet, last.Procs,
			last.GlobalStepsPerSec/1e6, last.PerThreadStepsPerSec/1e6,
			r.GlobalSpeedup, r.PerThreadSpeedup,
			r.GlobalOverheadPct, r.PerThreadOverheadPct, r.EpochSeals, r.BytesIdentical)
	}

	// Always-on record path: same per-app production recording with the
	// epoch ring off (the classic whole-execution log — "before") and on
	// ("after": bounded ring, periodic checkpoints). The schedule is
	// identical either way, so the throughput delta is exactly the cost
	// of sealing epochs and snapshotting the world.
	for _, rc := range []struct {
		app    string
		scheme sketch.Scheme
	}{
		{"mysqld", sketch.SYNC},
		{"fft", sketch.RW},
		{"pbzip2", sketch.SYNC},
	} {
		prog, ok := apps.Get(rc.app)
		if !ok {
			log.Fatalf("%s not in corpus", rc.app)
		}
		r := timeEpochRecord(prog, rc.scheme, *schedScale, *reps)
		rep.EpochRing = append(rep.EpochRing, r)
		fmt.Printf("epoch-ring %-9s %-4s %.2fM -> %.2fM steps/s (+%.1f%% wall)  overhead %.2f%% -> %.2f%%  window %d/%d entries  %d epochs (%d evicted)  %d checkpoints\n",
			r.App, r.Scheme, r.ClassicStepsPerSec/1e6, r.RingStepsPerSec/1e6, r.RingCostPct,
			r.ClassicOverheadPct, r.RingOverheadPct,
			r.WindowEntries, r.TotalEntries, r.Epochs, r.Evicted, r.Checkpoints)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// timeEncode returns best-of-5 ns/entry for one encoder on one log.
func timeEncode(l *trace.SketchLog, enc func(io.Writer, *trace.SketchLog) error) float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		var cw countWriter
		start := time.Now()
		if err := enc(&cw, l); err != nil {
			log.Fatal(err)
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(l.Len()); i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// timeSched records one app's patched production run (the E2 overhead
// configuration) under the pre-batching scheduler (SingleStep+NoBatch)
// and under the run-grant fast path, best-of-reps each, and reports the
// per-step cost in wall time, handoffs, and heap allocations. The two
// modes record different schedules (batches feed the run-aware
// strategies), so rates are normalized by each mode's own step count.
func timeSched(prog *appkit.Program, scale, reps int) schedResult {
	opts := core.Options{
		Scheme:       sketch.SYNC,
		Processors:   4,
		ScheduleSeed: 1,
		WorldSeed:    1,
		Scale:        scale,
		MaxSteps:     5_000_000,
		FixBugs:      true,
	}
	before := opts
	before.SingleStep = true
	before.NoBatch = true

	r := schedResult{App: prog.Name}
	var res *sched.Result
	r.BeforeSteps, r.BeforeStepsPerSec, r.BeforeAllocsPerStep, res = measureRecord(prog, before, reps)
	r.BeforeHandoffsPerStep = float64(res.Handoffs) / float64(res.Steps)
	r.AfterSteps, r.AfterStepsPerSec, r.AfterAllocsPerStep, res = measureRecord(prog, opts, reps)
	r.AfterHandoffsPerStep = float64(res.Handoffs) / float64(res.Steps)
	r.FastPathStepFrac = float64(res.FastPathSteps) / float64(res.Steps)
	r.Speedup = r.AfterStepsPerSec / r.BeforeStepsPerSec
	return r
}

// measureRecord runs core.Record reps times and returns the step count,
// the best observed steps/sec, the lowest observed allocs/step (mallocs
// are read process-wide, so the minimum over repetitions is the least
// contaminated sample), and the final run's scheduler result.
func measureRecord(prog *appkit.Program, opts core.Options, reps int) (uint64, float64, float64, *sched.Result) {
	var (
		bestRate   float64
		bestAllocs float64
		res        *sched.Result
	)
	var ms runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		rec := core.Record(prog, opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		res = rec.Result
		if res == nil || res.Steps == 0 {
			log.Fatalf("%s: empty recording", prog.Name)
		}
		rate := float64(res.Steps) / wall.Seconds()
		allocs := float64(ms.Mallocs-mallocs) / float64(res.Steps)
		if i == 0 || rate > bestRate {
			bestRate = rate
		}
		if i == 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
	}
	return res.Steps, bestRate, bestAllocs, res
}

// timeRecordFleet measures the record path the way production runs it:
// a fleet of concurrent recordings (independent seeds, one goroutine
// each) sharing one machine. For each GOMAXPROCS in procsList (the
// -procs flag) it times the whole fleet in global-log and
// per-thread-log modes (best-of-reps) and reports aggregate steps/sec;
// the sweep shows real scaling only on hosts with that many physical
// cores. One untimed pair per app also yields the modelled overheads,
// the epoch-seal count and a byte-identity check on the recordings.
func timeRecordFleet(prog *appkit.Program, scheme sketch.Scheme, scale, reps int, procsList []int) recordResult {
	opts := core.Options{
		Scheme:       scheme,
		Processors:   4,
		ScheduleSeed: 1,
		WorldSeed:    1,
		Scale:        scale,
		MaxSteps:     5_000_000,
		FixBugs:      true,
	}
	shardOpts := opts
	shardOpts.PerThreadLog = true

	r := recordResult{App: prog.Name, Scheme: scheme.String()}

	// Correctness and modelled-cost probe (single runs, untimed).
	global := core.Record(prog, opts)
	reg := obs.NewRegistry()
	shardOptsM := shardOpts
	shardOptsM.Metrics = reg
	perThread := core.Record(prog, shardOptsM)
	var gb, sb bytes.Buffer
	if err := global.Write(&gb); err != nil {
		log.Fatal(err)
	}
	if err := perThread.Write(&sb); err != nil {
		log.Fatal(err)
	}
	r.BytesIdentical = bytes.Equal(gb.Bytes(), sb.Bytes())
	r.StepsPerRun = global.Result.Steps
	r.GlobalOverheadPct = 100 * global.Result.Overhead()
	r.PerThreadOverheadPct = 100 * perThread.Result.Overhead()
	for key, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(key, "pres_record_epoch_seals_total") {
			r.EpochSeals += v
		}
	}

	fleet := runtime.NumCPU()
	if fleet < 4 {
		fleet = 4
	}
	if fleet > 8 {
		fleet = 8
	}
	r.Fleet = fleet

	runFleet := func(o core.Options) float64 {
		var steps atomic.Uint64
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < fleet; i++ {
			o := o
			o.ScheduleSeed = int64(1 + i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				steps.Add(core.Record(prog, o).Result.Steps)
			}()
		}
		wg.Wait()
		return float64(steps.Load()) / time.Since(start).Seconds()
	}
	bestOf := func(o core.Options) float64 {
		best := 0.0
		for i := 0; i < reps; i++ {
			if rate := runFleet(o); rate > best {
				best = rate
			}
		}
		return best
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		r.Sweep = append(r.Sweep, recordSweepPoint{
			Procs:                procs,
			AboveNumCPU:          procs > runtime.NumCPU(),
			GlobalStepsPerSec:    bestOf(opts),
			PerThreadStepsPerSec: bestOf(shardOpts),
		})
	}
	first, last := r.Sweep[0], r.Sweep[len(r.Sweep)-1]
	r.GlobalSpeedup = last.GlobalStepsPerSec / first.GlobalStepsPerSec
	r.PerThreadSpeedup = last.PerThreadStepsPerSec / first.PerThreadStepsPerSec
	return r
}

// timeEpochRecord records one app's patched production run (the E2
// overhead configuration) with the epoch ring off and on, best-of-reps
// each, and reports the real throughput delta plus what the ring
// retains. Ring geometry: 2048-step epochs, 8 retained, a checkpoint
// per seal — a long-running service's always-on setting scaled to the
// corpus workloads.
func timeEpochRecord(prog *appkit.Program, scheme sketch.Scheme, scale, reps int) epochRecordResult {
	opts := core.Options{
		Scheme:       scheme,
		Processors:   4,
		ScheduleSeed: 1,
		WorldSeed:    1,
		Scale:        scale,
		MaxSteps:     5_000_000,
		FixBugs:      true,
	}
	ringOpts := opts
	ringOpts.EpochRing = &core.EpochRingOptions{Steps: 2048, Size: 8, CheckpointEvery: 1}

	r := epochRecordResult{
		App:        prog.Name,
		Scheme:     scheme.String(),
		EpochSteps: ringOpts.EpochRing.Steps,
		RingSize:   ringOpts.EpochRing.Size,
	}

	// Untimed probes for the modelled overheads and the ring shape.
	classic := core.Record(prog, opts)
	ring := core.Record(prog, ringOpts)
	r.Steps = classic.Result.Steps
	r.ClassicOverheadPct = 100 * classic.Result.Overhead()
	r.RingOverheadPct = 100 * ring.Result.Overhead()
	r.TotalEntries = classic.Sketch.Len()
	r.WindowEntries = ring.Sketch.Len()
	if er := ring.Epochs; er != nil {
		r.Epochs = len(er.Epochs)
		r.Evicted = er.Evicted
		r.Checkpoints = len(er.Checkpoints)
	}

	_, r.ClassicStepsPerSec, _, _ = measureRecord(prog, opts, reps)
	_, r.RingStepsPerSec, _, _ = measureRecord(prog, ringOpts, reps)
	r.RingCostPct = 100 * (r.ClassicStepsPerSec/r.RingStepsPerSec - 1)
	return r
}

// parseProcs parses the -procs flag: a comma-separated, strictly
// increasing list of positive GOMAXPROCS settings.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var p int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p); err != nil || p < 1 {
			return nil, fmt.Errorf("bad GOMAXPROCS value %q", part)
		}
		if len(out) > 0 && p <= out[len(out)-1] {
			return nil, fmt.Errorf("values must strictly increase (%d after %d)", p, out[len(out)-1])
		}
		out = append(out, p)
	}
	return out, nil
}

// timeMatrix times one experiment's full matrix at -j 1 and
// -j GOMAXPROCS (best-of-reps each) and checks the rendered tables
// are byte-identical.
func timeMatrix(exp string, cfg harness.Config, reps int, run func(harness.Config) []byte) harnessResult {
	r := harnessResult{Exp: exp, Jobs: runtime.GOMAXPROCS(0)}
	var seqTable, parTable []byte
	for i := 0; i < reps; i++ {
		c := cfg
		c.Jobs = 1
		start := time.Now()
		seqTable = run(c)
		if ms := float64(time.Since(start)) / float64(time.Millisecond); i == 0 || ms < r.J1Millis {
			r.J1Millis = ms
		}
	}
	for i := 0; i < reps; i++ {
		c := cfg
		c.Jobs = r.Jobs
		start := time.Now()
		parTable = run(c)
		if ms := float64(time.Since(start)) / float64(time.Millisecond); i == 0 || ms < r.JMaxMillis {
			r.JMaxMillis = ms
		}
	}
	r.Speedup = r.J1Millis / r.JMaxMillis
	r.TablesIdentical = bytes.Equal(seqTable, parTable)
	fmt.Printf("harness %s  -j1 %.0f ms  -j%d %.0f ms  speedup %.2fx  identical=%v\n",
		r.Exp, r.J1Millis, r.Jobs, r.JMaxMillis, r.Speedup, r.TablesIdentical)
	return r
}
