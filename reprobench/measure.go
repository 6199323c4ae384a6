package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// loop is what one measured stretch of operations produced.
type loop struct {
	ops          []opResult
	wall         time.Duration // the loop's wall time, checks included
	okOps        int
	broken       bool
	allocBytes   uint64 // heap bytes allocated during the loop
	firstPassOps int    // operations in the first pass
}

// opWall is the summed wall time of the timed spans.
func (l *loop) opWall() time.Duration {
	var d time.Duration
	for _, o := range l.ops {
		d += o.wall
	}
	return d
}

// measure runs whole passes over the workload's inputs until d has
// elapsed and at least minOps operations ran. An operation that panics
// counts as a broken, failed one; the loop goes on.
func measure(w workload, d time.Duration, minOps int, reg func() (*obs.Registry, *obs.TraceSink), after func(i int, r opResult)) loop {
	var l loop
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d || len(l.ops) < minOps; pass++ {
		for i := range w.inputs() {
			r := safeOp(w, i, reg)
			if r.ok {
				l.okOps++
			}
			l.broken = l.broken || r.broken
			if after != nil {
				after(i, r)
			}
			r.order = nil // only the callback needs it; keeping it grows the heap
			l.ops = append(l.ops, r)
		}
		if pass == 0 {
			l.firstPassOps = len(l.ops)
		}
	}
	l.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	l.allocBytes = ms.TotalAlloc - alloc0
	return l
}

// safeOp runs one operation, turning a panic into a broken result.
func safeOp(w workload, i int, reg func() (*obs.Registry, *obs.TraceSink)) (r opResult) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "reprobench: %s operation %d panicked: %v\n%s", w.name(), i, p, debug.Stack())
			r = opResult{broken: true}
		}
	}()
	var (
		m *obs.Registry
		s *obs.TraceSink
	)
	if reg != nil {
		m, s = reg()
	}
	return w.op(i, m, s)
}

// timedSetup builds the workload sz.setupRuns times and returns the
// median set-up time; the last build's inputs stay in place.
func timedSetup(w workload, seed int64, runs int) (float64, error) {
	var times []float64
	for i := 0; i < max(runs, 1); i++ {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// runEndToEnd is the untraced run: set-up, then the measured loop.
//
// Every operation that does not end in a checked result counts as
// failed. Correct turns false only for outputs that contradict
// themselves whatever the search did: a panic, recording bytes that do
// not decode or re-encode identically, a non-deterministic or failing
// patched recording. A replay that exhausts its budget, or whose
// captured order does not manifest the bug again, is a failed
// reproduction the program reports, counted in failed and ok_frac.
func runEndToEnd(w workload, sz size, seed int64, d time.Duration) (result, error) {
	setupS, err := timedSetup(w, seed, sz.setupRuns)
	if err != nil {
		return result{}, err
	}
	l := measure(w, d, sz.minOps, nil, nil)

	walls := make([]float64, len(l.ops))
	for i, o := range l.ops {
		walls[i] = ms(o.wall)
	}
	sort.Float64s(walls)
	classes := classStats(w, l)
	for _, c := range classes {
		sort.Float64s(c.walls)
	}
	attempted := len(l.ops)
	set := newMetricSet(endToEnd)
	set.put("setup_s", setupS)
	set.put("op_ms_p50", midMean(walls))
	set.put("op_ms_p90", geomean(classes, func(c *class) float64 { return quantile(c.walls, 0.90) }))
	set.put("ops_per_s", geomean(classes, func(c *class) float64 { return float64(c.ok) / c.wall.Seconds() }))
	set.put("steps_per_s", geomean(classes, func(c *class) float64 { return float64(c.steps) / c.wall.Seconds() }))
	var sketchBytes, prodSteps float64
	for _, in := range w.inputs() {
		sketchBytes += float64(len(in.bytes))
		prodSteps += float64(in.steps)
	}
	set.put("sketch_bytes_per_kstep", sketchBytes/(prodSteps/1000))
	set.put("ok_frac", float64(l.okOps)/float64(attempted))
	set.put("max_rss_mb", maxRSSMiB())
	for _, c := range classes {
		fmt.Fprintf(os.Stderr, "  %-22s ops %5d ok %5d attempts/op %7.1f ms/op %9.3f\n",
			c.name, c.ops, c.ok, float64(c.attempts)/float64(c.ops), ms(c.wall)/float64(c.ops))
	}
	fmt.Fprintf(os.Stderr, "reprobench: %s seed %d: %d inputs, %d operations (%d ok) in %.2fs, set-up %.3fs\n",
		w.name(), seed, len(w.inputs()), attempted, l.okOps, l.wall.Seconds(), setupS)
	return result{Correct: !l.broken, Attempted: attempted, Failed: attempted - l.okOps, Metrics: set.m}, nil
}

// quantile returns the q-quantile of sorted xs, interpolating between
// neighbours; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// midMean is the median of sorted xs taken as the mean of its p40-p60
// band. Operation times cluster by bug, and a plain median jumps between
// two clusters when a seed moves a few operations across it; the band
// mean moves smoothly instead.
func midMean(xs []float64) float64 {
	lo, hi := len(xs)*2/5, len(xs)*3/5
	if hi <= lo {
		return quantile(xs, 0.5)
	}
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// maxRSSMiB is the process's peak resident set (VmHWM), or the Go
// runtime's obtained memory where /proc is unavailable.
func maxRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// class aggregates the operations on one input class (a bug, or an
// app and scheme) over a run.
type class struct {
	name              string
	ops, ok, attempts int
	steps             uint64
	wall              time.Duration
	walls             []float64 // each operation's wall time in ms
}

// classStats groups a run's operations by input class, in first-seen
// order.
func classStats(w workload, l loop) []*class {
	var out []*class
	byName := map[string]*class{}
	for j, o := range l.ops {
		name := w.class(j % len(w.inputs()))
		c := byName[name]
		if c == nil {
			c = &class{name: name}
			byName[name] = c
			out = append(out, c)
		}
		c.ops++
		if o.ok {
			c.ok++
		}
		c.attempts += o.attempts
		c.steps += o.steps
		c.wall += o.wall
		c.walls = append(c.walls, ms(o.wall))
	}
	return out
}

// geomean is the geometric mean of f over the classes with at least
// one successful operation; the throughput metrics use it so that each
// class weighs the same however many slow or fast inputs a seed drew.
// Classes with none are left out: ok_frac and failed count them.
func geomean(cs []*class, f func(*class) float64) float64 {
	var sum float64
	var n int
	for _, c := range cs {
		if c.ok == 0 || c.wall <= 0 {
			continue
		}
		sum += math.Log(f(c))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
