package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// size sets how much input a run builds. The benchmark uses fullSize;
// the smoke test uses a tiny one.
type size struct {
	recordSeeds int // production seeds per (app, scheme) in record
	bugSeeds    int // buggy production recordings per corpus bug
	setupRuns   int // set-ups per run; setup_s is their median
	minOps      int // a run measures at least this many operations
}

// fullSize draws enough production seeds per bug that a run's mix of
// shallow and deep searches barely depends on the workload seed, and
// measures at least 500 operations, so every input class has dozens of
// samples for its p90.
var fullSize = size{recordSeeds: 2, bugSeeds: 16, setupRuns: 3, minOps: 500}

// recordScale is the record workload's input size (appkit.Env.Scale).
const recordScale = 300

// alwaysOnRing is the always-on workload's recording geometry: 32-step
// epochs, two retained, a checkpoint at every seal.
var alwaysOnRing = core.EpochRingOptions{Steps: 32, Size: 2, CheckpointEvery: 1}

// opResult is the outcome of one timed operation.
type opResult struct {
	wall  time.Duration
	steps uint64 // simulated steps the operation executed
	ok    bool   // the operation's output passed its check
	// broken marks an output that contradicts itself (see result.Correct
	// in runEndToEnd); it implies !ok.
	broken bool
	// Replay workloads only.
	attempts int
	search   time.Duration // the Replay call
	repro    time.Duration // the Reproduce call
	stats    core.ReplayStats
	order    *trace.FullOrder // captured full order of a reproduction
}

// workload is one benchmark input set and the operation run over it.
type workload interface {
	name() string
	// setup builds the inputs from the workload seed.
	setup(seed int64) error
	// inputs are what one pass runs an operation on, in order; class
	// names the group input i belongs to (its bug, or its app and
	// scheme).
	inputs() []input
	class(i int) string
	// op runs operation i of a pass; reg, when non-nil, receives the
	// program's metrics, and sink its attempt trace.
	op(i int, reg *obs.Registry, sink *obs.TraceSink) opResult
}

// input is one production run and its encoded recording.
type input struct {
	prog  *appkit.Program
	opts  core.Options // the production run's options
	bytes []byte       // the encoded recording
	steps uint64       // the production steps it records
}

// readOpts is what the diagnosing side knows about a recording: the
// wire format carries neither the Options nor the run's Result.
func (in *input) readOpts() core.Options {
	return core.Options{
		Processors:   in.opts.Processors,
		ScheduleSeed: in.opts.ScheduleSeed,
		WorldSeed:    in.opts.WorldSeed,
		Scale:        in.opts.Scale,
		FixBugs:      in.opts.FixBugs,
	}
}

func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "record":
		return &recordWorkload{sz: sz}, nil
	case "diagnose":
		return &replayWorkload{sz: sz, label: name}, nil
	case "always-on":
		return &replayWorkload{sz: sz, label: name, ring: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want record, diagnose or always-on)", name)
}

// seedStarts returns a production-seed start drawn from the workload
// seed, one per stream, so different workload seeds record different
// production runs.
func seedStarts(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 20)
	}
	return out
}

// ---- record ----

// recordWorkload records the 11 apps with their bugs fixed, alternating
// SYNC and RW, and encodes each recording.
type recordWorkload struct {
	sz size
	// ins hold each input's encoded bytes from set-up: recording is
	// deterministic, so every operation must reproduce them.
	ins      []input
	buf, rtt bytes.Buffer
}

func (w *recordWorkload) name() string { return "record" }

func (w *recordWorkload) setup(seed int64) error {
	progs := apps.All()
	schemes := []sketch.Scheme{sketch.SYNC, sketch.RW}
	starts := seedStarts(seed, len(progs))
	w.ins = nil
	for k := 0; k < w.sz.recordSeeds; k++ {
		for i, p := range progs {
			for _, s := range schemes {
				w.ins = append(w.ins, input{prog: p, opts: core.Options{
					Scheme:       s,
					Processors:   4,
					ScheduleSeed: starts[i] + int64(k),
					WorldSeed:    1,
					Scale:        recordScale,
					FixBugs:      true,
				}})
			}
		}
	}
	for i := range w.ins {
		in := &w.ins[i]
		rec := core.Record(in.prog, in.opts)
		if f := rec.Result.Failure; f != nil {
			return fmt.Errorf("record set-up: %s %v seed %d: patched run failed: %v",
				in.prog.Name, in.opts.Scheme, in.opts.ScheduleSeed, f)
		}
		var b bytes.Buffer
		if err := rec.Write(&b); err != nil {
			return fmt.Errorf("record set-up: encode %s: %w", in.prog.Name, err)
		}
		in.bytes, in.steps = b.Bytes(), rec.Result.Steps
	}
	return nil
}

func (w *recordWorkload) inputs() []input { return w.ins }

func (w *recordWorkload) class(i int) string {
	return w.ins[i].prog.Name + "/" + w.ins[i].opts.Scheme.String()
}

func (w *recordWorkload) op(i int, reg *obs.Registry, _ *obs.TraceSink) opResult {
	r := &w.ins[i]
	opts := r.opts
	opts.Metrics = reg
	w.buf.Reset()

	start := time.Now()
	rec := core.Record(r.prog, opts)
	err := rec.Write(&w.buf)
	out := opResult{wall: time.Since(start), steps: rec.Result.Steps}

	// Checks: the patched run ends clean, the recording is the one
	// set-up made, and decoding then re-encoding gives the same bytes.
	if err != nil || rec.Result.Failure != nil || !bytes.Equal(w.buf.Bytes(), r.bytes) {
		out.broken = true
		return out
	}
	back, err := core.ReadRecording(bytes.NewReader(w.buf.Bytes()), r.readOpts())
	if err != nil {
		out.broken = true
		return out
	}
	w.rtt.Reset()
	if err := back.Write(&w.rtt); err != nil || !bytes.Equal(w.rtt.Bytes(), w.buf.Bytes()) {
		out.broken = true
		return out
	}
	out.ok = true
	return out
}

// ---- diagnose and always-on ----

// replayWorkload is presrun then presreplay for every corpus bug: a
// seed scan finds buggy production runs, each is encoded, and an
// operation takes one recording from its bytes to a verified
// reproduction. With ring set it is the always-on variant: recordings
// keep a bounded epoch ring with checkpoints, and replay starts from
// the newest checkpoint with one worker per CPU.
type replayWorkload struct {
	sz      size
	label   string
	ring    bool
	ins     []input
	bugs    []string      // each input's bug
	oracles []core.Oracle // each input's bug oracle
}

func (w *replayWorkload) name() string { return w.label }

// schemeFor is the sketch each bug is recorded with: SYNC, except the
// two bugs whose synchronization order does not constrain the failure.
func schemeFor(bug string) sketch.Scheme {
	switch bug {
	case "barnes-order":
		return sketch.FUNC
	case "pbzip2-order":
		return sketch.SYS
	}
	return sketch.SYNC
}

// maxScan bounds the seed scan per bug; every corpus bug manifests far
// more often than this needs.
const maxScan = 100_000

func (w *replayWorkload) setup(seed int64) error {
	bugs := apps.AllBugs()
	starts := seedStarts(seed, len(bugs))
	w.ins, w.bugs, w.oracles = nil, nil, nil
	// Recordings are ordered seed-major, so a pass alternates bugs.
	perBug := make([][]input, len(bugs))
	for bi, b := range bugs {
		prog, ok := apps.ProgramForBug(b.ID)
		if !ok {
			return fmt.Errorf("set-up: bug %s has no program", b.ID)
		}
		oracle := core.MatchBugID(b.ID)
		for s := starts[bi]; len(perBug[bi]) < w.sz.bugSeeds; s++ {
			if s-starts[bi] >= maxScan {
				return fmt.Errorf("set-up: %s did not manifest %d times in %d seeds", b.ID, w.sz.bugSeeds, maxScan)
			}
			opts := core.Options{Scheme: schemeFor(b.ID), Processors: 4, ScheduleSeed: s, WorldSeed: 1}
			if w.ring {
				ring := alwaysOnRing
				opts.EpochRing = &ring
			}
			rec := core.Record(prog, opts)
			if f := rec.BugFailure(); f == nil || !oracle(f) {
				continue
			}
			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				return fmt.Errorf("set-up: encode %s seed %d: %w", b.ID, s, err)
			}
			perBug[bi] = append(perBug[bi], input{prog: prog, opts: opts, bytes: buf.Bytes(), steps: rec.Result.Steps})
		}
	}
	for k := 0; k < w.sz.bugSeeds; k++ {
		for bi, b := range bugs {
			w.ins = append(w.ins, perBug[bi][k])
			w.bugs = append(w.bugs, b.ID)
			w.oracles = append(w.oracles, core.MatchBugID(b.ID))
		}
	}
	return nil
}

func (w *replayWorkload) inputs() []input    { return w.ins }
func (w *replayWorkload) class(i int) string { return w.bugs[i] }

// workers is the replay pool width: one for diagnose, which keeps the
// search trajectory fixed, one per CPU for always-on.
func (w *replayWorkload) workers() int {
	if w.ring {
		return replayWorkers()
	}
	return 1
}

func (w *replayWorkload) op(i int, reg *obs.Registry, sink *obs.TraceSink) opResult {
	r, oracle := &w.ins[i], w.oracles[i]
	// presreplay's defaults: feedback search with the bug's oracle and
	// the default budget; always-on starts at the newest checkpoint.
	ro := core.ReplayOptions{
		Feedback: true, Oracle: oracle, Workers: w.workers(), FromCheckpoint: w.ring,
		Metrics: reg, Trace: sink,
	}

	start := time.Now()
	rec, err := core.ReadRecording(bytes.NewReader(r.bytes), r.readOpts())
	if err != nil {
		return opResult{wall: time.Since(start), broken: true}
	}
	searchStart := time.Now()
	res := core.Replay(r.prog, rec, ro)
	searchEnd := time.Now()
	var run *sched.Result
	if res.Reproduced {
		run = core.Reproduce(r.prog, rec, res.Order)
	}
	end := time.Now()

	out := opResult{
		wall:     end.Sub(start),
		steps:    res.Stats.Steps,
		attempts: res.Attempts,
		search:   searchEnd.Sub(searchStart),
		repro:    end.Sub(searchEnd),
		stats:    res.Stats,
	}
	if run != nil {
		out.steps += run.Steps
		out.order = res.Order
		// The reproduction counts only if the captured order manifests
		// a failure the bug's oracle accepts.
		out.ok = run.Failure != nil && run.Failure.IsBug() && oracle(run.Failure)
	}
	return out
}
