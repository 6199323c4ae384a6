// Package mem models the shared memory applications race on.
//
// Cells and arrays hold 64-bit words at stable virtual addresses (the
// FNV-1a hash of their name, plus the element offset for arrays), so an
// address identifies the same program variable across the production run
// and every replay attempt. Every Load/Store/RMW is a scheduling point
// of the corresponding trace kind; this is the event stream the RW
// sketch records in full and the replayer's race detector analyses.
//
// Peek/Poke access the same storage without scheduling points; they are
// for test oracles and pre-run setup only, never for application logic.
package mem

import (
	"hash/fnv"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Addr hashes a variable name to its stable virtual address.
func Addr(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Cell is one shared 64-bit word.
type Cell struct {
	name string
	addr uint64
	val  uint64
}

// NewCell allocates a shared word with a stable name and initial value.
func NewCell(name string, init uint64) *Cell {
	addr := Addr(name)
	registerName(addr, name)
	return &Cell{name: name, addr: addr, val: init}
}

// Name returns the cell's name.
func (c *Cell) Name() string { return c.name }

// Addr returns the cell's stable virtual address.
func (c *Cell) Addr() uint64 { return c.addr }

// Load reads the cell at a scheduling point and returns the value.
func (c *Cell) Load(t *sched.Thread) uint64 {
	var v uint64
	t.Point(&sched.Op{
		Kind: trace.KindLoad,
		Obj:  c.addr,
		Desc: "load",
		Name: c.name,
		Effect: func(ctx *sched.EffectCtx) {
			v = c.val
			ctx.Ev.Arg = v
		},
	})
	return v
}

// Store writes the cell at a scheduling point.
func (c *Cell) Store(t *sched.Thread, v uint64) {
	t.Point(&sched.Op{
		Kind:   trace.KindStore,
		Obj:    c.addr,
		Arg:    v,
		Desc:   "store",
		Name:   c.name,
		Effect: func(*sched.EffectCtx) { c.val = v },
	})
}

// Add atomically adds delta (two's-complement for negatives) and returns
// the new value. A single RMW scheduling point: this is the *correctly
// synchronized* counter update; buggy code instead uses Load+Store.
func (c *Cell) Add(t *sched.Thread, delta uint64) uint64 {
	var v uint64
	t.Point(&sched.Op{
		Kind: trace.KindRMW,
		Obj:  c.addr,
		Arg:  delta,
		Desc: "add",
		Name: c.name,
		Effect: func(ctx *sched.EffectCtx) {
			c.val += delta
			v = c.val
		},
	})
	return v
}

// CAS atomically replaces old with new if the cell holds old, reporting
// whether it swapped.
func (c *Cell) CAS(t *sched.Thread, old, new uint64) bool {
	var ok bool
	t.Point(&sched.Op{
		Kind: trace.KindRMW,
		Obj:  c.addr,
		Arg:  new,
		Desc: "cas",
		Name: c.name,
		Effect: func(ctx *sched.EffectCtx) {
			if c.val == old {
				c.val = new
				ok = true
			}
		},
	})
	return ok
}

// LoadOp returns the scheduling-point op Load performs, for declaring
// straight-line runs with Thread.PointBatch; f, when non-nil, receives
// the loaded value at commit time.
func (c *Cell) LoadOp(f func(uint64)) *sched.Op {
	return &sched.Op{
		Kind: trace.KindLoad,
		Obj:  c.addr,
		Desc: "load",
		Name: c.name,
		Effect: func(ctx *sched.EffectCtx) {
			v := c.val
			ctx.Ev.Arg = v
			if f != nil {
				f(v)
			}
		},
	}
}

// StoreOp returns the scheduling-point op Store performs, for declaring
// straight-line runs with Thread.PointBatch.
func (c *Cell) StoreOp(v uint64) *sched.Op {
	return &sched.Op{
		Kind:   trace.KindStore,
		Obj:    c.addr,
		Arg:    v,
		Desc:   "store",
		Name:   c.name,
		Effect: func(*sched.EffectCtx) { c.val = v },
	}
}

// StoreOpFn is StoreOp with the value computed at commit time (e.g.,
// from values earlier ops of the same batch loaded); the committed
// event's Arg carries the computed value.
func (c *Cell) StoreOpFn(f func() uint64) *sched.Op {
	return &sched.Op{
		Kind: trace.KindStore,
		Obj:  c.addr,
		Desc: "store",
		Name: c.name,
		Effect: func(ctx *sched.EffectCtx) {
			v := f()
			c.val = v
			ctx.Ev.Arg = v
		},
	}
}

// Peek reads the cell without a scheduling point (oracle/setup only).
func (c *Cell) Peek() uint64 { return c.val }

// Poke writes the cell without a scheduling point (oracle/setup only).
func (c *Cell) Poke(v uint64) { c.val = v }

// Array is a fixed-length vector of shared 64-bit words. Element i
// lives at Addr(name)+8*i.
type Array struct {
	name string
	base uint64
	vals []uint64
}

// NewArray allocates a zeroed shared array.
func NewArray(name string, n int) *Array {
	base := Addr(name)
	registerSpan(base, name, n)
	return &Array{name: name, base: base, vals: make([]uint64, n)}
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Len returns the element count.
func (a *Array) Len() int { return len(a.vals) }

// ElemAddr returns the stable virtual address of element i.
func (a *Array) ElemAddr(i int) uint64 { return a.base + 8*uint64(i) }

// Load reads element i at a scheduling point.
func (a *Array) Load(t *sched.Thread, i int) uint64 {
	var v uint64
	t.Point(&sched.Op{
		Kind: trace.KindLoad,
		Obj:  a.ElemAddr(i),
		Desc: "load",
		Name: a.name,
		Effect: func(ctx *sched.EffectCtx) {
			v = a.vals[i]
			ctx.Ev.Arg = v
		},
	})
	return v
}

// Store writes element i at a scheduling point.
func (a *Array) Store(t *sched.Thread, i int, v uint64) {
	t.Point(&sched.Op{
		Kind:   trace.KindStore,
		Obj:    a.ElemAddr(i),
		Arg:    v,
		Desc:   "store",
		Name:   a.name,
		Effect: func(*sched.EffectCtx) { a.vals[i] = v },
	})
}

// Add atomically adds delta to element i and returns the new value.
func (a *Array) Add(t *sched.Thread, i int, delta uint64) uint64 {
	var v uint64
	t.Point(&sched.Op{
		Kind: trace.KindRMW,
		Obj:  a.ElemAddr(i),
		Arg:  delta,
		Desc: "add",
		Name: a.name,
		Effect: func(ctx *sched.EffectCtx) {
			a.vals[i] += delta
			v = a.vals[i]
		},
	})
	return v
}

// LoadOp returns the scheduling-point op Load performs on element i,
// for declaring straight-line runs with Thread.PointBatch; f, when
// non-nil, receives the loaded value at commit time.
func (a *Array) LoadOp(i int, f func(uint64)) *sched.Op {
	return &sched.Op{
		Kind: trace.KindLoad,
		Obj:  a.ElemAddr(i),
		Desc: "load",
		Name: a.name,
		Effect: func(ctx *sched.EffectCtx) {
			v := a.vals[i]
			ctx.Ev.Arg = v
			if f != nil {
				f(v)
			}
		},
	}
}

// StoreOp returns the scheduling-point op Store performs on element i,
// for declaring straight-line runs with Thread.PointBatch.
func (a *Array) StoreOp(i int, v uint64) *sched.Op {
	return &sched.Op{
		Kind:   trace.KindStore,
		Obj:    a.ElemAddr(i),
		Arg:    v,
		Desc:   "store",
		Name:   a.name,
		Effect: func(*sched.EffectCtx) { a.vals[i] = v },
	}
}

// StoreOpFn is StoreOp with the value computed at commit time (e.g.,
// from values earlier ops of the same batch loaded); the committed
// event's Arg carries the computed value.
func (a *Array) StoreOpFn(i int, f func() uint64) *sched.Op {
	return &sched.Op{
		Kind: trace.KindStore,
		Obj:  a.ElemAddr(i),
		Desc: "store",
		Name: a.name,
		Effect: func(ctx *sched.EffectCtx) {
			v := f()
			a.vals[i] = v
			ctx.Ev.Arg = v
		},
	}
}

// Peek reads element i without a scheduling point (oracle/setup only).
func (a *Array) Peek(i int) uint64 { return a.vals[i] }

// Poke writes element i without a scheduling point (oracle/setup only).
func (a *Array) Poke(i int, v uint64) { a.vals[i] = v }

// Matrix is a shared 2-dimensional array of 64-bit words in row-major
// layout, for the scientific kernels. Element (r,c) lives at
// Addr(name)+8*(r*cols+c).
type Matrix struct {
	name string
	arr  *Array
	cols int
}

// NewMatrix allocates a zeroed rows x cols shared matrix.
func NewMatrix(name string, rows, cols int) *Matrix {
	return &Matrix{name: name, arr: NewArray(name, rows*cols), cols: cols}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.arr.Len() / m.cols }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Load reads element (r,c) at a scheduling point.
func (m *Matrix) Load(t *sched.Thread, r, c int) uint64 {
	return m.arr.Load(t, r*m.cols+c)
}

// Store writes element (r,c) at a scheduling point.
func (m *Matrix) Store(t *sched.Thread, r, c int, v uint64) {
	m.arr.Store(t, r*m.cols+c, v)
}

// LoadOp returns the scheduling-point op Load performs on (r,c), for
// declaring straight-line runs with Thread.PointBatch.
func (m *Matrix) LoadOp(r, c int, f func(uint64)) *sched.Op {
	return m.arr.LoadOp(r*m.cols+c, f)
}

// StoreOp returns the scheduling-point op Store performs on (r,c), for
// declaring straight-line runs with Thread.PointBatch.
func (m *Matrix) StoreOp(r, c int, v uint64) *sched.Op {
	return m.arr.StoreOp(r*m.cols+c, v)
}

// StoreOpFn is StoreOp with the value computed at commit time.
func (m *Matrix) StoreOpFn(r, c int, f func() uint64) *sched.Op {
	return m.arr.StoreOpFn(r*m.cols+c, f)
}

// Peek reads element (r,c) without a scheduling point (oracle/setup
// only).
func (m *Matrix) Peek(r, c int) uint64 { return m.arr.Peek(r*m.cols + c) }

// Poke writes element (r,c) without a scheduling point (oracle/setup
// only).
func (m *Matrix) Poke(r, c int, v uint64) { m.arr.Poke(r*m.cols+c, v) }
