package vsys

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// reference is the stream a world seeded with seed has always drawn:
// math/rand over that seed, from its first value.
func reference(seed int64, n int) []uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func drawN(t *testing.T, w *World, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	runL(t, func(th *sched.Thread) {
		for i := range out {
			out[i] = w.Rand(th)
		}
	})
	return out
}

func sameStream(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d = %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// TestLazyRandStream: the world's random source is created on first
// draw, which must not move the stream — a live world draws exactly
// math/rand's sequence for its seed, and a world that never drew
// round-trips through Snapshot/Restore (in place or into a fresh world)
// and then draws that same sequence from its start.
func TestLazyRandStream(t *testing.T) {
	const seed, n = 42, 6
	want := reference(seed, n)

	live := NewWorld(seed)
	if live.rng != nil {
		t.Fatal("a fresh world must not create its random source before the first draw")
	}
	sameStream(t, "live", drawN(t, live, n), want)

	idle := NewWorld(seed)
	snap := idle.Snapshot()
	if err := idle.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if idle.rng != nil {
		t.Fatal("restoring a draw-zero snapshot must leave the source uncreated")
	}
	sameStream(t, "restored in place", drawN(t, idle, n), want)

	fresh := NewWorld(seed)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "restored into a fresh world", drawN(t, fresh, n), want)

	// A world that has drawn, restored to the draw-zero snapshot, starts
	// the stream over.
	drew := NewWorld(seed)
	drawN(t, drew, 3)
	if err := drew.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "rewound to draw zero", drawN(t, drew, n), want)

	// And a mid-stream snapshot resumes where it was taken.
	mid := NewWorld(seed)
	drawN(t, mid, 2)
	midSnap := mid.Snapshot()
	resumed := NewWorld(seed)
	if err := resumed.Restore(midSnap); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "restored mid-stream", drawN(t, resumed, n-2), want[2:])
}
