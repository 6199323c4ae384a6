package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// probeTime is the least wall time each layer probe measures; a probe
// repeats its inputs until it has run this long.
const probeTime = 300 * time.Millisecond

// runTraced is the per-layer run. It measures the workload untraced
// and then traced (Options.Metrics or ReplayOptions.Metrics and Trace,
// plus a CPU profile), half the time each, and then times each layer's
// public functions on the workload's own inputs. Layers a workload
// does not exercise report 0.
func runTraced(w workload, sz size, seed int64, d time.Duration) (result, error) {
	if err := w.setup(seed); err != nil {
		return result{}, err
	}
	plain := measure(w, d/2, sz.minOps/2, nil, nil)

	reg := obs.NewRegistry()
	var sinkBuf bytes.Buffer
	var events []obs.AttemptEvent
	orders := make([]*trace.FullOrder, len(w.inputs()))
	sinks := func() (*obs.Registry, *obs.TraceSink) {
		sinkBuf.Reset()
		return reg, obs.NewTraceSink(&sinkBuf)
	}
	collect := func(i int, r opResult) {
		if orders[i] == nil {
			orders[i] = r.order
		}
		events = append(events, attemptEvents(sinkBuf.Bytes())...)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := measure(w, d/2, sz.minOps/2, sinks, collect)
	pprof.StopCPUProfile()

	set := newMetricSet(perLayer)
	put := set.put

	// obs: what the tracing itself costs, per operation.
	plainMean := plain.opWall().Seconds() / float64(len(plain.ops))
	tracedMean := traced.opWall().Seconds() / float64(len(traced.ops))
	put("obs.trace_overhead_frac", 1-plainMean/tracedMean)
	put("gc.alloc_bytes_per_op", float64(plain.allocBytes)/float64(len(plain.ops)))

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, mod := range cpuModules {
		put("cpu_share."+mod, shares[mod])
	}

	ins := w.inputs()
	sp := probeSched(ins)
	put("sched.ns_per_step", sp.nsPerStep)
	put("sched.handoffs_per_step", sp.handoffsPerStep)
	put("sched.fastpath_frac", sp.fastFrac)
	put("sched.allocs_per_step", sp.allocsPerStep)

	streams := captureProduction(ins)
	put("sketch.ns_per_event.sync", probeSketch(streams, sketch.SYNC))
	put("sketch.ns_per_event.rw", probeSketch(streams, sketch.RW))

	enc, dec, err := probeCodec(ins)
	if err != nil {
		return result{}, err
	}
	put("trace.encode_ns_per_entry", enc)
	put("trace.decode_ns_per_entry", dec)
	ring, err := probeRing(ins)
	if err != nil {
		return result{}, err
	}
	put("core.ring_record_ns_per_step", ring.nsPerStep)
	put("trace.window_entries_frac", ring.windowFrac)
	put("core.restore_ms_p50", ring.restoreMs)

	if rw, ok := w.(*replayWorkload); ok {
		replayLayers(set, rw, plain, traced, events, orders, reg)
	}

	attempted := len(plain.ops) + len(traced.ops)
	okOps := plain.okOps + traced.okOps
	return result{Correct: !plain.broken && !traced.broken, Attempted: attempted, Failed: attempted - okOps, Metrics: set.m}, nil
}

// replayLayers sets the race, core, search and exec metrics of a
// replay workload: search and reproduce times from the untraced loop,
// per-attempt figures from the traced loop's attempt trace and
// ReplayStats, and the race detector timed over the reproductions'
// event streams.
func replayLayers(set *metricSet, w *replayWorkload, plain, traced loop, events []obs.AttemptEvent, orders []*trace.FullOrder, reg *obs.Registry) {
	raceNs, racePairs := probeRace(w, orders)
	set.put("race.ns_per_event", raceNs)
	set.put("race.pairs_per_kevent", racePairs)

	var searchMs, reproMs []float64
	for _, o := range plain.ops {
		searchMs = append(searchMs, ms(o.search))
		if o.repro > 0 {
			reproMs = append(reproMs, ms(o.repro))
		}
	}
	sort.Float64s(searchMs)
	sort.Float64s(reproMs)
	set.put("core.search_ms_p50", quantile(searchMs, 0.5))
	set.put("core.search_ms_p90", quantile(searchMs, 0.9))
	set.put("core.reproduce_ms_p50", quantile(reproMs, 0.5))
	var attempts int
	for _, o := range plain.ops[:plain.firstPassOps] {
		attempts += o.attempts
	}
	set.put("search.attempts_per_repro", float64(attempts)/float64(max(plain.firstPassOps, 1)))

	var executed, divergences int
	var steps uint64
	var searchWall float64
	for _, o := range traced.ops {
		executed += o.attempts
		divergences += o.stats.Divergences
		steps += o.stats.Steps
		searchWall += o.search.Seconds()
	}
	set.put("core.steps_per_attempt", float64(steps)/float64(max(executed, 1)))
	set.put("core.divergence_frac", float64(divergences)/float64(max(executed, 1)))

	var attemptMs []float64
	var attemptWall float64
	var flips, directed, reproduced int
	for _, ev := range events {
		attemptMs = append(attemptMs, ev.WallMS)
		attemptWall += ev.WallMS / 1000
		flips += ev.FlipDepth
		if ev.Mode == "directed" {
			directed++
		}
		if ev.Outcome == "reproduced" {
			reproduced++
		}
	}
	sort.Float64s(attemptMs)
	n := float64(max(len(events), 1))
	set.put("core.attempt_ms_p50", quantile(attemptMs, 0.5))
	set.put("core.flips_per_attempt", float64(flips)/n)
	set.put("search.useful_frac", float64(reproduced)/n)
	set.put("search.directed_frac", float64(directed)/n)
	set.put("exec.worker_util", attemptWall/(float64(w.workers())*max(searchWall, 1e-9)))
	set.put("exec.occupancy_mean", histMean(reg, "pres_replay_wave_occupancy"))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// attemptEvents parses the attempt records out of one search's JSONL
// trace.
func attemptEvents(jsonl []byte) []obs.AttemptEvent {
	var out []obs.AttemptEvent
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev obs.AttemptEvent
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == obs.EventAttempt {
			out = append(out, ev)
		}
	}
	return out
}

// histMean is a registry histogram's mean observation, 0 if empty.
func histMean(reg *obs.Registry, name string) float64 {
	h, ok := reg.Snapshot().Histograms[name]
	if !ok || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// printLayerTable writes the per-layer metrics, one per line, grouped
// by layer name.
func printLayerTable(f io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "per-layer metrics, workload %s:\n", workload)
	for _, n := range names {
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// ---- layer probes ----

// runProduction executes one production run the way core.Record does,
// with the given observers instead of a sketch recorder.
func runProduction(p input, observers []sched.Observer) *sched.Result {
	procs := p.opts.Processors
	world := vsys.NewWorld(p.opts.WorldSeed)
	world.StartRecording(&trace.InputLog{})
	return sched.Run(func(t *sched.Thread) {
		p.prog.Run(&appkit.Env{T: t, W: world, Scale: p.opts.Scale, Procs: procs, FixBugs: p.opts.FixBugs})
	}, sched.Config{
		Strategy:  sched.NewRandomMP(procs, core.DefaultPreempt, p.opts.ScheduleSeed),
		Observers: observers,
		MaxSteps:  p.opts.MaxSteps,
	})
}

type schedProbe struct {
	nsPerStep, handoffsPerStep, fastFrac, allocsPerStep float64
}

// probeSched times sched.Run under the production strategy with no
// observers over the workload's production runs.
func probeSched(prod []input) schedProbe {
	var steps, handoffs, fast uint64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, p := range prod {
			res := runProduction(p, nil)
			steps += res.Steps
			handoffs += res.Handoffs
			fast += res.FastPathSteps
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	n := float64(max(steps, 1))
	return schedProbe{
		nsPerStep:       float64(wall.Nanoseconds()) / n,
		handoffsPerStep: float64(handoffs) / n,
		fastFrac:        float64(fast) / n,
		allocsPerStep:   float64(ms.Mallocs-mallocs) / n,
	}
}

// eventLog is an Observer that keeps the committed event stream.
type eventLog struct{ evs []trace.Event }

func (l *eventLog) OnEvent(ev trace.Event) uint64 {
	l.evs = append(l.evs, ev)
	return 0
}

// captureProduction records each production run's event stream.
func captureProduction(prod []input) [][]trace.Event {
	out := make([][]trace.Event, len(prod))
	for i, p := range prod {
		var l eventLog
		runProduction(p, []sched.Observer{&l})
		out[i] = l.evs
	}
	return out
}

// probeSketch times sketch.NewRecorder(s).OnEvent over the captured
// streams, in ns per event.
func probeSketch(streams [][]trace.Event, s sketch.Scheme) float64 {
	var events int
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, evs := range streams {
			r := sketch.NewRecorder(s)
			for _, ev := range evs {
				r.OnEvent(ev)
			}
			events += len(evs)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(max(events, 1))
}

// probeCodec times Recording.Write and core.ReadRecording per sketch
// entry over the workload's recordings.
func probeCodec(ins []input) (encodeNs, decodeNs float64, err error) {
	recs := make([]*core.Recording, len(ins))
	var entries int
	for i, in := range ins {
		rec, err := core.ReadRecording(bytes.NewReader(in.bytes), in.readOpts())
		if err != nil {
			return 0, 0, fmt.Errorf("codec probe: %w", err)
		}
		recs[i] = rec
		entries += rec.Sketch.Len()
	}
	var buf bytes.Buffer
	var n int
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, rec := range recs {
			buf.Reset()
			if err := rec.Write(&buf); err != nil {
				return 0, 0, fmt.Errorf("codec probe: %w", err)
			}
		}
		n += entries
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	n = 0
	start = time.Now()
	for time.Since(start) < probeTime {
		for _, in := range ins {
			if _, err := core.ReadRecording(bytes.NewReader(in.bytes), in.readOpts()); err != nil {
				return 0, 0, fmt.Errorf("codec probe: %w", err)
			}
		}
		n += entries
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	return encodeNs, decodeNs, nil
}

type ringProbe struct {
	nsPerStep, windowFrac, restoreMs float64
}

// probeRing is the always-on path on the workload's production runs:
// it times core.Record with the always-on epoch ring (ns per recorded
// step), measures the share of sketch entries the ring retains, and
// times a one-attempt Replay from the newest checkpoint of each
// recording that has one (prefix re-execution plus digest check, then
// one attempt; the median in ms).
func probeRing(prod []input) (ringProbe, error) {
	var p ringProbe
	var steps uint64
	var window, total int
	var restores []float64
	for i, pr := range prod {
		opts := pr.opts
		ring := alwaysOnRing
		opts.EpochRing = &ring
		start := time.Now()
		rec := core.Record(pr.prog, opts)
		p.nsPerStep += float64(time.Since(start).Nanoseconds())
		steps += rec.Result.Steps
		if rec.Epochs == nil {
			continue
		}
		window += rec.Epochs.WindowLen()
		total += int(rec.Epochs.EvictedEntries) + rec.Epochs.WindowLen()
		if len(rec.Epochs.Checkpoints) == 0 || i >= restoreInputs {
			continue
		}
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			return p, fmt.Errorf("ring probe: %w", err)
		}
		back, err := core.ReadRecording(&buf, pr.readOpts())
		if err != nil {
			return p, fmt.Errorf("ring probe: %w", err)
		}
		start = time.Now()
		core.Replay(pr.prog, back, core.ReplayOptions{Feedback: true, MaxAttempts: 1, FromCheckpoint: true, Workers: 1})
		restores = append(restores, ms(time.Since(start)))
	}
	p.nsPerStep /= float64(max(steps, 1))
	p.windowFrac = float64(window) / float64(max(total, 1))
	sort.Float64s(restores)
	p.restoreMs = quantile(restores, 0.5)
	return p, nil
}

// restoreInputs bounds how many production runs the ring probe restores
// from, so the probe stays short on the long record inputs.
const restoreInputs = 26

// probeRace re-executes each reproduction's captured order, keeping
// the event stream, and times race.NewDetector().OnEvent over the
// streams: ns per event and reported pairs per 1000 events.
func probeRace(w *replayWorkload, orders []*trace.FullOrder) (nsPerEvent, pairsPerK float64) {
	var streams [][]trace.Event
	for i, order := range orders {
		if order == nil {
			continue
		}
		r := &w.ins[i]
		rec, err := core.ReadRecording(bytes.NewReader(r.bytes), r.readOpts())
		if err != nil {
			continue
		}
		world := vsys.NewWorld(r.opts.WorldSeed)
		world.StartReplay(rec.Inputs)
		var l eventLog
		sched.Run(func(t *sched.Thread) {
			r.prog.Run(&appkit.Env{T: t, W: world, Scale: r.opts.Scale, Procs: r.opts.Processors})
		}, sched.Config{Strategy: &sched.OrderStrategy{Order: order.Order}, Observers: []sched.Observer{&l}})
		streams = append(streams, l.evs)
	}
	if len(streams) == 0 {
		return 0, 0
	}
	var events, pairs int
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, evs := range streams {
			d := race.NewDetector()
			for _, ev := range evs {
				d.OnEvent(ev)
			}
			events += len(evs)
			pairs += len(d.Pairs())
		}
	}
	n := float64(max(events, 1))
	return float64(time.Since(start).Nanoseconds()) / n, 1000 * float64(pairs) / n
}
