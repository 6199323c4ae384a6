package trace

import "testing"

// FuzzFlipPrefixKey pins that every prefix depth of a flip sequence
// keys differently under ScheduleCacheKey. The replay search extends a
// directed attempt's flip set by one flip per feedback generation, so
// a parent and each of its descendants are prefixes of one sequence:
// if two depths shared a key, the schedule cache would serve a
// shallower attempt's verdict for a deeper one, and the dedup set
// (whose identity matches FlipSetKey exactly) would drop a new node as
// already seen. The property must hold through the full
// ScheduleCacheKey composition, not just FlipSetKey, and for duplicate
// flips too: extending a set by a flip it already contains still
// changes the multiset, so it must still change the key.
func FuzzFlipPrefixKey(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), flipSeed(36))
	f.Add(uint64(0xdeadbeef), flipSeed(72))
	f.Add(uint64(1)<<63, flipSeed(36*8))
	// Duplicate flips: two identical 36-byte tuples.
	dup := append(flipSeed(36), flipSeed(36)...)
	f.Add(uint64(42), dup)

	f.Fuzz(func(t *testing.T, ctx uint64, b []byte) {
		flips := flipsFromBytes(b)
		keys := make([]string, len(flips)+1)
		for i := 0; i <= len(flips); i++ {
			keys[i] = ScheduleCacheKey(ctx, 0, false, FlipSetKey(flips[:i]))
		}
		for i := 0; i <= len(flips); i++ {
			for j := i + 1; j <= len(flips); j++ {
				if keys[i] == keys[j] {
					t.Fatalf("prefix depths %d and %d share key %q (flips %v)",
						i, j, keys[i], flips)
				}
			}
		}
		// A context change must move every key: two searches with
		// different digests can never serve each other's cache entries.
		for i := 0; i <= len(flips); i++ {
			if other := ScheduleCacheKey(ctx+1, 0, false, FlipSetKey(flips[:i])); other == keys[i] {
				t.Fatalf("depth %d key %q ignores the context digest", i, keys[i])
			}
		}
	})
}
