package ssync

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// wedgeThread1 is an injection hook that hangs every fault site of
// thread 1 and leaves everyone else alone.
func wedgeThread1(tid trace.TID, _ sched.InjectPoint) sched.InjectAction {
	if tid == 1 {
		return sched.InjectAction{Outcome: sched.InjectWedge}
	}
	return sched.InjectAction{}
}

// TestWedgedLockDeadlockText pins the deadlock report of a wedged lock
// acquisition byte for byte: verb, mutex name, the wedged suffix, then
// the holder.
func TestWedgedLockDeadlockText(t *testing.T) {
	res := sched.Run(func(th *sched.Thread) {
		m := NewMutex("m")
		m.Lock(th)
		w := th.Spawn("w", func(ct *sched.Thread) { m.Lock(ct) })
		th.Join(w)
	}, sched.Config{Strategy: sched.Lowest{}, Inject: wedgeThread1})
	if res.Failure == nil || res.Failure.Reason != sched.ReasonDeadlock {
		t.Fatalf("want a deadlock, got %v", res.Failure)
	}
	want := []string{"join w (join obj=0x1)", "lock m (wedged) held by main (lock obj=0xaf63e04c8601f358)"}
	if len(res.Failure.Stuck) != len(want) {
		t.Fatalf("stuck = %+v, want %q", res.Failure.Stuck, want)
	}
	for i, s := range res.Failure.Stuck {
		if s.What != want[i] {
			t.Errorf("stuck[%d] = %q, want %q", i, s.What, want[i])
		}
	}
}
