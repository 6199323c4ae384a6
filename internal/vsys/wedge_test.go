package vsys

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestWedgedSyscallDeadlockText pins the deadlock report of wedged
// syscalls byte for byte: call, object name, then the wedged suffix.
func TestWedgedSyscallDeadlockText(t *testing.T) {
	wedge := func(tid trace.TID, _ sched.InjectPoint) sched.InjectAction {
		if tid == 1 {
			return sched.InjectAction{Outcome: sched.InjectWedge}
		}
		return sched.InjectAction{}
	}
	for _, c := range []struct {
		name string
		call func(fd *FD, q *Queue, ct *sched.Thread)
		want string
	}{
		{"read", func(fd *FD, _ *Queue, ct *sched.Thread) { fd.Read(ct, make([]byte, 4)) },
			"sys read f (wedged) (syscall obj=0x2)"},
		{"recv", func(_ *FD, q *Queue, ct *sched.Thread) { q.Recv(ct) },
			"sys recv q (wedged) (syscall obj=0xa)"},
	} {
		w := NewWorld(1)
		res := sched.Run(func(th *sched.Thread) {
			q := w.NewQueue("q")
			fd := w.Open(th, "f")
			child := th.Spawn("w", func(ct *sched.Thread) { c.call(fd, q, ct) })
			th.Join(child)
		}, sched.Config{Strategy: sched.Lowest{}, Inject: wedge})
		if res.Failure == nil || res.Failure.Reason != sched.ReasonDeadlock {
			t.Fatalf("%s: want a deadlock, got %v", c.name, res.Failure)
		}
		want := []string{"join w (join obj=0x1)", c.want}
		if len(res.Failure.Stuck) != len(want) {
			t.Fatalf("%s: stuck = %+v, want %q", c.name, res.Failure.Stuck, want)
		}
		for i, s := range res.Failure.Stuck {
			if s.What != want[i] {
				t.Errorf("%s: stuck[%d] = %q, want %q", c.name, i, s.What, want[i])
			}
		}
	}
}
