package vsys

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// World state snapshots. A snapshot captures everything a run can have
// mutated in the virtual syscall layer — clock, random-stream position,
// file contents, queue contents and (during replay) the per-thread
// input cursors — as a self-describing byte blob, taken at a scheduler
// quiescent point (between grants, e.g. an epoch seal, where no thread
// is mid-effect). core stores one per checkpoint so a replayer can
// validate or re-establish the boundary state.
//
// The random stream is captured as a draw count, not generator
// internals: Restore reseeds from the world's creation seed and
// fast-forwards the recorded number of draws, which reproduces the
// exact stream position without depending on math/rand's unexported
// state. A snapshot at draw zero leaves the source uncreated, as in a
// fresh world: the first draw seeds it.

// snapshot wire: "VSNP" clock draws
//
//	nFiles { name data }...  (sorted by name)
//	nQueues { name closed nMsgs { msg }... }...  (sorted by name)
//	nCursors { tid call consumed }...  (sorted; replay worlds only)
const snapMagic = "VSNP"

// Snapshot serializes the world's mutable state. Call only at a
// quiescent point (no thread between a syscall's decision and effect).
func (w *World) Snapshot() []byte {
	buf := []byte(snapMagic)
	buf = binary.AppendUvarint(buf, w.clock)
	buf = binary.AppendUvarint(buf, w.draws)

	names := make([]string, 0, len(w.fs))
	for name := range w.fs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		buf = appendBytes(buf, w.fs[name].data)
	}

	qnames := make([]string, 0, len(w.qs))
	for name := range w.qs {
		qnames = append(qnames, name)
	}
	sort.Strings(qnames)
	buf = binary.AppendUvarint(buf, uint64(len(qnames)))
	for _, name := range qnames {
		q := w.qs[name]
		buf = appendString(buf, name)
		closed := uint64(0)
		if q.closed {
			closed = 1
		}
		buf = binary.AppendUvarint(buf, closed)
		buf = binary.AppendUvarint(buf, uint64(len(q.msgs)))
		for _, m := range q.msgs {
			buf = appendBytes(buf, m)
		}
	}

	type ck struct {
		tid      trace.TID
		call     uint64
		consumed uint64
	}
	var cursors []ck
	if w.mode == Replay {
		total := map[inputKey]uint64{}
		for _, r := range w.log.Records {
			total[inputKey{r.TID, r.Call}]++
		}
		for k, remaining := range w.cursor {
			if consumed := total[k] - uint64(len(remaining)); consumed > 0 {
				cursors = append(cursors, ck{k.tid, k.call, consumed})
			}
		}
		sort.Slice(cursors, func(i, j int) bool {
			if cursors[i].tid != cursors[j].tid {
				return cursors[i].tid < cursors[j].tid
			}
			return cursors[i].call < cursors[j].call
		})
	}
	buf = binary.AppendUvarint(buf, uint64(len(cursors)))
	for _, c := range cursors {
		buf = binary.AppendUvarint(buf, uint64(uint32(c.tid)))
		buf = binary.AppendUvarint(buf, c.call)
		buf = binary.AppendUvarint(buf, c.consumed)
	}
	return buf
}

// Restore re-establishes a snapshot taken on a world with the same
// creation seed (and, for replay worlds, the same attached input log).
// Existing file and queue objects are mutated in place so handles the
// application already holds stay valid; files and queues absent from
// the snapshot are removed.
func (w *World) Restore(snap []byte) error {
	r := &snapReader{buf: snap}
	if string(r.take(len(snapMagic))) != snapMagic {
		return fmt.Errorf("vsys: bad snapshot magic")
	}
	clock := r.uvarint()
	draws := r.uvarint()

	nFiles := r.uvarint()
	files := make(map[string][]byte, nFiles)
	for i := uint64(0); i < nFiles && r.err == nil; i++ {
		name := string(r.bytes())
		files[name] = append([]byte(nil), r.bytes()...)
	}
	type qstate struct {
		closed bool
		msgs   [][]byte
	}
	nQueues := r.uvarint()
	queues := make(map[string]qstate, nQueues)
	for i := uint64(0); i < nQueues && r.err == nil; i++ {
		name := string(r.bytes())
		st := qstate{closed: r.uvarint() == 1}
		nMsgs := r.uvarint()
		for j := uint64(0); j < nMsgs && r.err == nil; j++ {
			st.msgs = append(st.msgs, append([]byte(nil), r.bytes()...))
		}
		queues[name] = st
	}
	nCursors := r.uvarint()
	type ckey struct {
		k        inputKey
		consumed uint64
	}
	cursors := make([]ckey, 0, nCursors)
	for i := uint64(0); i < nCursors && r.err == nil; i++ {
		tid := trace.TID(int32(r.uvarint()))
		call := r.uvarint()
		cursors = append(cursors, ckey{inputKey{tid, call}, r.uvarint()})
	}
	if r.err != nil {
		return fmt.Errorf("vsys: corrupt snapshot: %v", r.err)
	}

	w.clock = clock
	w.rng = nil
	if draws > 0 {
		w.rng = rand.New(rand.NewSource(w.seed))
		for i := uint64(0); i < draws; i++ {
			w.rng.Uint64()
		}
	}
	w.draws = draws
	for name, data := range files {
		if f := w.fs[name]; f != nil {
			f.data = data
		} else {
			w.fs[name] = &file{name: name, data: data}
		}
	}
	for name, f := range w.fs {
		if _, ok := files[name]; !ok {
			f.gone = true
			delete(w.fs, name)
		}
	}
	for name, st := range queues {
		q := w.qs[name]
		if q == nil {
			q = &Queue{w: w, name: name, obj: hashName(name)}
			w.qs[name] = q
		}
		q.closed = st.closed
		q.msgs = st.msgs
	}
	for name := range w.qs {
		if _, ok := queues[name]; !ok {
			delete(w.qs, name)
		}
	}
	if w.mode == Replay {
		w.cursor = make(map[inputKey][]int)
		for i, rec := range w.log.Records {
			k := inputKey{rec.TID, rec.Call}
			w.cursor[k] = append(w.cursor[k], i)
		}
		for _, c := range cursors {
			if rem := w.cursor[c.k]; uint64(len(rem)) >= c.consumed {
				w.cursor[c.k] = rem[c.consumed:]
			}
		}
	}
	return nil
}

// Digest returns a 64-bit digest of the world's snapshot state, for
// cheap boundary-equality checks between a recording's checkpoint and
// a replay's re-executed prefix.
func (w *World) Digest() uint64 {
	d := trace.NewDigest()
	d.Bytes(w.Snapshot())
	return d.Sum()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// snapReader is a minimal error-latching cursor over a snapshot blob.
type snapReader struct {
	buf []byte
	pos int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *snapReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated at offset %d", r.pos)
	}
}
