package core

import (
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Snapshot-tree replay search. Sibling attempts in the directed
// frontier share long identical flip-set prefixes: a child's schedule
// is byte-identical to its parent's until the child's newly added flip
// can first engage. With ReplayOptions.PrefixSnapshots on, a directed
// attempt captures world + engine state at scheduler quiescent points
// (sched.QuiescentObserver fires at the top of a scheduling round,
// before the strategy picks — exactly the contract vsys.World.Snapshot
// requires, and the only instant at which the director's pick-side
// state still describes the committed prefix) into a search.SnapshotCache
// keyed by the attempt's flip-set prefix; a child attempt restores
// from the deepest safe snapshot and executes only its divergent
// suffix.
//
// Threads are goroutines and cannot be serialized, so "restore" is
// forced mechanical re-execution: the snapshot carries the parent's
// grant order up to the capture step, and forkStrategy grants exactly
// that order — under multi-step run budgets, since no decision is
// being made — then validates the running event digest and the world
// digest against the snapshot's (the FromCheckpoint protocol,
// checkpoint.go) before handing the schedule to the director. What the
// restore actually saves is everything *around* the raw execution: the
// director's per-pick sketch/flip bookkeeping collapses to forced
// grants, and the race detector — the dominant per-event cost — skips
// the prefix entirely, resuming from a boundary-state clone
// (race.Detector.Clone). The reproduced schedule is unchanged: the
// order capture spans the whole execution, forced prefix included, so
// a reproduction's FullOrder is exactly what a from-scratch attempt
// would have captured.
//
// Safety bound: a snapshot of the parent at step S is usable for a
// child adding flip f only if the child's own schedule through S
// provably equals the parent's. The child differs from the parent only
// by f, and f can influence a pick only once the director could hold
// f's access — which requires f.holdTID to have executed
// f.holdCount-1 events. Snapshots record the parent's per-thread
// progress, so the engine accepts a snapshot only while
// executed[holdTID]+1 < holdCount (strictly before the hold identity
// can appear as a candidate); progress is monotone in the step, so the
// accepted set is a step-prefix and "deepest accepted" is well
// defined. p.FirstSeq — where the parent actually granted the access —
// upper-bounds the probe.

// raceDetector is the detector surface runAttempt needs: observation
// plus the accumulated pairs.
type raceDetector interface {
	sched.Observer
	Pairs() []race.Pair
}

// cloneDetector deep-copies a detector's state for a snapshot (or
// re-clones a snapshot's master copy for one restore), returning the
// clone and its modeled byte footprint; (nil, 0) for detector types
// without a clone path, which disables snapshotting for the attempt.
func cloneDetector(det raceDetector) (raceDetector, int64) {
	switch d := det.(type) {
	case *race.Detector:
		return d.Clone(), d.Footprint()
	case *race.LocksetDetector:
		return d.Clone(), d.Footprint()
	}
	return nil, 0
}

// snapKey is a flip-set prefix's snapshot-cache key: the schedule-
// cache identity of the deterministic directed attempt that executes
// that prefix (directed attempts are unseeded, so seed 0 / policy
// "det" names them all).
func snapKey(digest uint64, flipKey string) string {
	return trace.ScheduleCacheKey(digest, 0, false, flipKey)
}

// snapPlan is the per-attempt snapshot participation, composed by the
// engine: where to store captures (selfKey names this attempt's own
// prefix; empty disables capture, e.g. at max flip depth where no
// child will ever exist) and where to restore from (parentKey/bound
// name the parent prefix and the new flip's upper probe bound; empty/0
// for root attempts).
type snapPlan struct {
	cache     *search.SnapshotCache
	selfKey   string
	parentKey string
	bound     uint64
}

// dirState is the director's pick-side state at a capture point —
// everything OnEvent alone cannot re-establish in a restored child.
// The executed map doubles as the safety-bound witness.
type dirState struct {
	k           int
	last        trace.TID
	soft        bool
	exhaustStep uint64
	executed    map[trace.TID]uint64
	// done holds the keys of flips already released at the capture
	// point. Keyed by flip identity, not index: the child's flip slice
	// contains one more flip and is re-sorted.
	done map[trace.FlipID]bool
}

func captureDirState(d *director) dirState {
	ex := make(map[trace.TID]uint64, len(d.executed))
	for tid, n := range d.executed {
		ex[tid] = n
	}
	done := make(map[trace.FlipID]bool, len(d.flips))
	for i, f := range d.flips {
		if d.flipDone[i] {
			done[f.id()] = true
		}
	}
	return dirState{k: d.k, last: d.last, soft: d.soft,
		exhaustStep: d.exhaustStep, executed: ex, done: done}
}

// installDirState primes a restored child's fresh director with the
// parent's capture-point state. The director still observes the forced
// prefix normally (OnEvent re-derives executed and partner-released
// flips, idempotently over these values); installing up front covers
// the parts only Pick ever advanced — the sketch cursor, stickiness,
// soft mode, forced flip releases.
func installDirState(d *director, st dirState) {
	d.k = st.k
	d.last = st.last
	d.soft = st.soft
	d.exhaustStep = st.exhaustStep
	for tid, n := range st.executed {
		d.executed[tid] = n
	}
	for i, f := range d.flips {
		if st.done[f.id()] {
			d.flipDone[i] = true
		}
	}
}

// snapState is the engine payload stored in a search.Snapshot: the
// director's pick-side state and a master detector clone. Restores
// re-clone det rather than adopt it, so one snapshot serves any number
// of children and stays immutable under concurrent workers.
type snapState struct {
	dir dirState
	det raceDetector
}

// snapOverhead is the flat per-snapshot byte charge on top of the
// world blob, order slice and detector footprint.
const snapOverhead = 256

// snapInterval is the first capture cadence in committed events; the
// interval doubles every snapDoubleEvery captures so long executions
// keep a bounded, geometrically thinning snapshot ladder.
const (
	snapInterval    = 8
	snapDoubleEvery = 12
)

// snapshotter is the attempt-side observer: it folds every committed
// event into the running digest restores validate against, and — when
// capturing — stores world/engine snapshots at quiescent points on the
// deterministic cadence above. Registered only when PrefixSnapshots is
// on; attempts without it keep the exact pre-snapshot observer set.
type snapshotter struct {
	world  *vsys.World
	cap    *orderCapture
	dir    *director
	det    raceDetector
	plan   *snapPlan
	digest *trace.Digest
	base   uint64 // restore boundary; captures only strictly past it

	capture  bool
	next     uint64
	interval uint64

	captures int
	capBytes int64
	evicted  int
}

func newSnapshotter(world *vsys.World, cap *orderCapture, dir *director, det raceDetector, plan *snapPlan, digest *trace.Digest, base uint64) *snapshotter {
	return &snapshotter{
		world: world, cap: cap, dir: dir, det: det, plan: plan,
		digest: digest, base: base,
		capture: plan.selfKey != "", interval: snapInterval,
		next: base + snapInterval,
	}
}

// OnEvent implements sched.Observer: every committed event — forced
// prefix or live suffix — feeds the digest, so a capture's EventDigest
// always covers the full prefix from step 0.
func (s *snapshotter) OnEvent(ev trace.Event) uint64 {
	s.digest.Entry(trace.EntryOf(ev))
	return 0
}

// OnQuiescent implements sched.QuiescentObserver: at a pre-pick
// quiescent point with step events committed, capture if the cadence
// is due. Firing before the pick matters: captureDirState must see the
// director after the last commit's OnEvent but before the next pick
// mutates stickiness, the sketch cursor or flip releases — a post-pick
// capture would be one decision ahead of the stream it claims to
// describe, and a child restored from it replays that decision a step
// early.
// Restored attempts only capture strictly past their own boundary —
// the parent already holds every shallower snapshot of this prefix.
func (s *snapshotter) OnQuiescent(step uint64) {
	if !s.capture || step < s.next || step <= s.base {
		return
	}
	det, detBytes := cloneDetector(s.det)
	if det == nil {
		s.capture = false
		return
	}
	world := s.world.Snapshot()
	wd := trace.NewDigest()
	wd.Bytes(world)
	// The order slice shares the capture's backing array: the attempt
	// appends only at indices >= step, restores read only below it, and
	// growth reallocates, so the sharing is race-free and copy-free.
	order := s.cap.order[:step:step]
	snap := &search.Snapshot{
		Key:         s.plan.selfKey,
		Step:        step,
		EventDigest: s.digest.Sum(),
		WorldDigest: wd.Sum(),
		World:       world,
		Order:       order,
		State:       &snapState{dir: captureDirState(s.dir), det: det},
		Bytes:       int64(len(world)) + 4*int64(len(order)) + detBytes + snapOverhead,
	}
	s.evicted += s.plan.cache.Store(snap)
	s.captures++
	s.capBytes += snap.Bytes
	if s.captures%snapDoubleEvery == 0 {
		s.interval *= 2
	}
	s.next = step + s.interval
}

// forkStrategy resumes an attempt from a prefix snapshot: phase one
// (seen < boundary) forces the parent's captured grant order —
// consuming multi-step run budgets across consecutive same-thread
// grants, since no scheduling decision is being made — and phase two
// validates both digests at the boundary (exactly restoreStrategy's
// protocol) before delegating every pick to the director. A mismatch
// marks the attempt diverged; there is no fallback, because a
// divergent forced prefix means the snapshot lied and nothing about
// the attempt can be trusted.
//
// It is also an Observer: committed prefix events advance the forced
// cursor (runs may end early; the commit stream is the truth), and
// suffix events feed the boundary-state detector clone — which thereby
// accumulates exactly the pair set a from-scratch detector would have.
type forkStrategy struct {
	dir   *director
	world *vsys.World
	det   raceDetector // boundary-state clone; fed suffix events only

	order      []trace.TID
	boundary   uint64
	wantDigest uint64
	wantWorld  uint64
	digest     *trace.Digest // the snapshotter's; read-only here

	seen     uint64
	switched bool
	mismatch bool
}

// Pick implements sched.Strategy.
func (f *forkStrategy) Pick(view *sched.PickView) (trace.TID, bool) {
	if f.seen < f.boundary {
		tid := f.order[f.seen]
		if _, ok := view.Find(tid); !ok {
			f.mismatch = true
			return trace.NoTID, false
		}
		return tid, true
	}
	if !f.switched {
		f.switched = true
		if f.digest.Sum() != f.wantDigest || f.world.Digest() != f.wantWorld {
			f.mismatch = true
		}
	}
	if f.mismatch {
		return trace.NoTID, false
	}
	return f.dir.Pick(view)
}

// RunBudget implements sched.RunGranter: during the forced prefix the
// run extends across consecutive same-thread grants in the captured
// order — and never past the boundary, because the scan stops at the
// order's end. Past the boundary the director's budget-1 invariant
// rules (see its doc).
func (f *forkStrategy) RunBudget(view *sched.PickView, tid trace.TID) int {
	i := f.seen
	if i >= f.boundary || f.order[i] != tid {
		return 1
	}
	n := 1
	for i+uint64(n) < f.boundary && f.order[i+uint64(n)] == tid {
		n++
	}
	return n
}

// ObserveStep implements sched.RunGranter. Cursor advancement happens
// in OnEvent — the commit stream is authoritative even when a run ends
// early — so there is nothing to do here.
func (f *forkStrategy) ObserveStep(tid trace.TID, cost uint64) {}

// OnEvent implements sched.Observer (see the type doc).
func (f *forkStrategy) OnEvent(ev trace.Event) uint64 {
	f.seen++
	if f.seen <= f.boundary {
		return 0
	}
	return f.det.OnEvent(ev)
}
