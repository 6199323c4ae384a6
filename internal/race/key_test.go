package race

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// legacyKey is the string identity Pair.Key rendered before PairKey
// existed; PairKey must identify exactly the pairs it did.
func legacyKey(p Pair) string {
	return fmt.Sprintf("%#x:t%d#%d/t%d#%d", p.First.Addr, p.First.TID, p.First.TCount, p.Second.TID, p.Second.TCount)
}

// TestPairKeyMatchesLegacyKey: two pairs share a PairKey iff they
// shared the old string key — in particular, pairs differing only in
// the accesses' Write flags or the global steps stay one race.
func TestPairKeyMatchesLegacyKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Tiny ranges make equal and near-equal pairs common; TID -1
	// (trace.NoTID) covers the negative rendering.
	acc := func() Access {
		return Access{
			TID:    trace.TID(rng.Intn(3) - 1),
			TCount: uint64(rng.Intn(3)),
			Addr:   uint64(rng.Intn(2)) << 8,
			Write:  rng.Intn(2) == 0,
		}
	}
	var pairs []Pair
	for i := 0; i < 300; i++ {
		p := Pair{First: acc(), Second: acc(), FirstSeq: uint64(rng.Intn(4)), SecondSeq: uint64(rng.Intn(4))}
		pairs = append(pairs, p)
		// The same accesses with flipped kinds and moved steps.
		q := p
		q.First.Write, q.Second.Write = !p.First.Write, !p.Second.Write
		q.FirstSeq, q.SecondSeq = p.FirstSeq+10, p.SecondSeq+20
		pairs = append(pairs, q)
	}
	legacy := make([]string, len(pairs))
	for i, p := range pairs {
		legacy[i] = legacyKey(p)
	}
	for i, a := range pairs {
		for j, b := range pairs {
			if keyEq, legacyEq := a.Key() == b.Key(), legacy[i] == legacy[j]; keyEq != legacyEq {
				t.Fatalf("%+v vs %+v: PairKey equal %v, legacy key equal %v", a, b, keyEq, legacyEq)
			}
		}
	}
	if pairs[0].Key() != pairs[1].Key() {
		t.Fatal("pairs differing only in Write and steps must share a key")
	}
}

// TestDetectorKnownPairAllocFree pins the detector's steady state at
// zero allocations: re-observing accesses whose races are already known
// dedups on the comparable PairKey and cycles the per-address history
// through recycled clock storage.
func TestDetectorKnownPairAllocFree(t *testing.T) {
	d := NewDetector()
	evs := []trace.Event{
		{TID: 1, TCount: 1, Kind: trace.KindStore, Obj: 0x40, Seq: 1},
		{TID: 2, TCount: 1, Kind: trace.KindStore, Obj: 0x40, Seq: 2},
		{TID: 1, TCount: 2, Kind: trace.KindLoad, Obj: 0x40, Seq: 3},
	}
	feed := func() {
		for _, ev := range evs {
			d.OnEvent(ev)
		}
	}
	for i := 0; i < 2*historyDepth; i++ {
		feed()
	}
	known := len(d.Pairs())
	if known == 0 {
		t.Fatal("the unsynchronized accesses must race")
	}
	if allocs := testing.AllocsPerRun(1000, feed); allocs != 0 {
		t.Fatalf("re-observing known pairs allocates %v/op, want 0", allocs)
	}
	if len(d.Pairs()) != known {
		t.Fatalf("pairs grew from %d to %d re-observing the same accesses", known, len(d.Pairs()))
	}
}
