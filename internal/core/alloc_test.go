package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/race"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// TestDirectorPickAllocFree pins the director's per-pick cost at zero
// allocations once its candidate buffers have grown: a steady-state
// pick with the sketch unconsumed and a flip holding a candidate runs
// collect, applyFlips and the sticky policy on reused storage.
func TestDirectorPickAllocFree(t *testing.T) {
	hold := race.Pair{
		First:  race.Access{TID: 2, TCount: 1, Addr: 0x20, Write: true},
		Second: race.Access{TID: 5, TCount: 1, Addr: 0x20},
	}
	idle := race.Pair{
		First:  race.Access{TID: 4, TCount: 9, Addr: 0x30, Write: true},
		Second: race.Access{TID: 1, TCount: 9, Addr: 0x30},
	}
	fs, _ := flipSet{}.with(flipOf(hold))
	fs, _ = fs.with(flipOf(idle))
	d := newDirector(sketch.SYNC, []trace.SketchEntry{entry(1, trace.KindLock, 7)}, fs, nil)
	v := view(cand(1, trace.KindLoad, 0x10), cand(2, trace.KindStore, 0x20), cand(3, trace.KindLock, 9))
	pick := func() {
		if tid, ok := d.Pick(v); !ok || tid == 2 {
			t.Fatalf("pick = %d, %v; want an unheld thread", tid, ok)
		}
	}
	pick()
	if !d.soft {
		t.Fatal("the engaged flip must switch the director to soft enforcement")
	}
	if allocs := testing.AllocsPerRun(1000, pick); allocs != 0 {
		t.Fatalf("steady-state Pick allocates %v/op, want 0", allocs)
	}
}

// TestFeedbackReplayAllocBudget bounds the whole replay step path —
// scheduler, director, race detector, feedback commit — on a real
// feedback search: allocations per executed step stay under a fixed
// budget, so a per-step allocation reappearing anywhere on the path
// fails here rather than only in the benchmark.
func TestFeedbackReplayAllocBudget(t *testing.T) {
	const budget = 5.0
	prog, ok := apps.ProgramForBug("mysql-169")
	if !ok {
		t.Fatal("mysql-169 not in corpus")
	}
	rec := recordBuggy(t, prog, sketch.SYNC)
	var res *ReplayResult
	allocs := testing.AllocsPerRun(1, func() {
		res = Replay(prog, rec, ReplayOptions{Feedback: true, Workers: 1})
	})
	if !res.Reproduced {
		t.Fatalf("feedback replay did not reproduce: %+v", res.Stats)
	}
	perStep := allocs / float64(res.Stats.Steps)
	t.Logf("%d attempts, %d steps, %.0f allocs (%.2f/step)", res.Attempts, res.Stats.Steps, allocs, perStep)
	if perStep > budget {
		t.Fatalf("feedback replay allocates %.2f/step, budget %.0f", perStep, budget)
	}
}

// TestFlipSetIDMatchesFlipSetKey: the dedup set's comparable flip-set
// identity and the trace.FlipSetKey string identify exactly the same
// sets — two sets share an ID iff they share a key — across orderings,
// near-miss coordinates and every size up to maxFlipDepth.
func TestFlipSetIDMatchesFlipSetKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Tiny coordinate ranges make equal and near-equal sets common.
	randFlip := func() flip {
		return flip{
			addr:      uint64(rng.Intn(2)),
			holdTID:   trace.TID(rng.Intn(2)),
			holdCount: uint64(rng.Intn(2)),
			untilTID:  trace.TID(rng.Intn(2)),
			untilCnt:  uint64(rng.Intn(2)),
		}
	}
	randSet := func() flipSet {
		fs := flipSet{}
		for n := rng.Intn(maxFlipDepth + 1); len(fs.flips) < n; {
			fs.flips = append(fs.flips, randFlip())
		}
		return fs
	}
	var sets []flipSet
	for i := 0; i < 400; i++ {
		fs := randSet()
		sets = append(sets, fs)
		// A permutation of the same flips must map to the same identity.
		perm := flipSet{flips: append([]flip(nil), fs.flips...)}
		rng.Shuffle(len(perm.flips), func(i, j int) { perm.flips[i], perm.flips[j] = perm.flips[j], perm.flips[i] })
		sets = append(sets, perm)
	}
	ids := make([]flipSetID, len(sets))
	keys := make([]string, len(sets))
	for i, fs := range sets {
		ids[i], keys[i] = canonicalFlipSetID(fs), canonicalFlipKey(fs)
	}
	shared := 0
	for i := range sets {
		for j := range sets {
			idEq, keyEq := ids[i] == ids[j], keys[i] == keys[j]
			if idEq != keyEq {
				t.Fatalf("sets %v and %v: ID equal %v, FlipSetKey equal %v", sets[i].flips, sets[j].flips, idEq, keyEq)
			}
			if idEq && i != j {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two distinct draws shared an identity; the property was never exercised")
	}
}

// TestFlipSetTraceID: the attempt trace's flip-set rendering is the
// discovery-order join of the flips' canonical keys.
func TestFlipSetTraceID(t *testing.T) {
	a := flip{addr: 0x10, holdTID: 1, holdCount: 2, untilTID: 3, untilCnt: 4}
	b := flip{addr: 0x0, holdTID: -1, holdCount: 0, untilTID: 0, untilCnt: 7}
	fs, _ := flipSet{}.with(a)
	fs, _ = fs.with(b)
	want := "|0x10:t3#4>t1#2|0x0:t0#7>t-1#0"
	if got := fs.traceID(); got != want {
		t.Fatalf("traceID = %q, want %q", got, want)
	}
	for _, f := range []flip{a, b} {
		legacy := fmt.Sprintf("%#x:t%d#%d>t%d#%d", f.addr, f.untilTID, f.untilCnt, f.holdTID, f.holdCount)
		if f.key() != legacy {
			t.Fatalf("key = %q, want %q", f.key(), legacy)
		}
	}
	if (flipSet{}).traceID() != "" {
		t.Fatal("the empty set renders as the empty string")
	}
}
