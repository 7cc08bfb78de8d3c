package main

import (
	"sync/atomic"

	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// The filesystem boundary. countFS wraps whatever rt.FS a rank was given
// — MemFS on the real backend, a per-process fssim view on the simulated
// one — and tallies calls and bytes per operation kind into one fsCounts
// shared by every rank of a repetition. The counts are what repeats
// exactly; seconds are recorded only in a traced run (clock != nil), on
// the rank's own clock, so they are virtual seconds on vt-* workloads.

type fsOp int

const (
	opCreate fsOp = iota
	opOpen
	opRemove
	opRename
	opList
	opStat
	opRead
	opWrite
	opTruncate
	opClose
	numFSOps
)

// fsCounts is safe for concurrent use by all ranks and background tasks.
type fsCounts struct {
	calls [numFSOps]atomic.Int64
	bytes [numFSOps]atomic.Int64 // opRead and opWrite only
	nanos [numFSOps]atomic.Int64 // traced runs only
}

// fsTotals is a plain copy of the counters at one instant.
type fsTotals struct {
	Calls [numFSOps]int64
	Bytes [numFSOps]int64
	Nanos [numFSOps]int64
}

func (c *fsCounts) totals() fsTotals {
	var t fsTotals
	for op := fsOp(0); op < numFSOps; op++ {
		t.Calls[op] = c.calls[op].Load()
		t.Bytes[op] = c.bytes[op].Load()
		t.Nanos[op] = c.nanos[op].Load()
	}
	return t
}

// sub returns the activity between an earlier reading and t.
func (t fsTotals) sub(earlier fsTotals) fsTotals {
	for op := fsOp(0); op < numFSOps; op++ {
		t.Calls[op] -= earlier.Calls[op]
		t.Bytes[op] -= earlier.Bytes[op]
		t.Nanos[op] -= earlier.Nanos[op]
	}
	return t
}

// busySeconds is the total time spent inside the backing filesystem.
func (t fsTotals) busySeconds() float64 {
	var ns int64
	for _, n := range t.Nanos {
		ns += n
	}
	return float64(ns) / 1e9
}

// note records one finished operation that started at t0 (ignored
// unless timing is on).
func (c *fsCounts) note(op fsOp, n int, clock rt.Clock, t0 float64) {
	c.calls[op].Add(1)
	if n > 0 {
		c.bytes[op].Add(int64(n))
	}
	if clock != nil {
		c.nanos[op].Add(int64((clock.Now() - t0) * 1e9))
	}
}

func start(clock rt.Clock) float64 {
	if clock == nil {
		return 0
	}
	return clock.Now()
}

type countFS struct {
	inner rt.FS
	c     *fsCounts
	clock rt.Clock // nil: count only
}

func (f *countFS) wrapFile(file rt.File, err error) (rt.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{inner: file, fs: f}, nil
}

func (f *countFS) Create(name string) (rt.File, error) {
	t0 := start(f.clock)
	file, err := f.inner.Create(name)
	f.c.note(opCreate, 0, f.clock, t0)
	return f.wrapFile(file, err)
}

func (f *countFS) Open(name string) (rt.File, error) {
	t0 := start(f.clock)
	file, err := f.inner.Open(name)
	f.c.note(opOpen, 0, f.clock, t0)
	return f.wrapFile(file, err)
}

func (f *countFS) Remove(name string) error {
	t0 := start(f.clock)
	err := f.inner.Remove(name)
	f.c.note(opRemove, 0, f.clock, t0)
	return err
}

func (f *countFS) Rename(oldname, newname string) error {
	t0 := start(f.clock)
	err := f.inner.Rename(oldname, newname)
	f.c.note(opRename, 0, f.clock, t0)
	return err
}

func (f *countFS) List(prefix string) ([]string, error) {
	t0 := start(f.clock)
	names, err := f.inner.List(prefix)
	f.c.note(opList, 0, f.clock, t0)
	return names, err
}

func (f *countFS) Stat(name string) (int64, error) {
	t0 := start(f.clock)
	size, err := f.inner.Stat(name)
	f.c.note(opStat, 0, f.clock, t0)
	return size, err
}

type countFile struct {
	inner rt.File
	fs    *countFS
}

func (f *countFile) Name() string         { return f.inner.Name() }
func (f *countFile) Size() (int64, error) { return f.inner.Size() }

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := start(f.fs.clock)
	n, err := f.inner.ReadAt(p, off)
	f.fs.c.note(opRead, n, f.fs.clock, t0)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := start(f.fs.clock)
	n, err := f.inner.WriteAt(p, off)
	f.fs.c.note(opWrite, n, f.fs.clock, t0)
	return n, err
}

func (f *countFile) Truncate(size int64) error {
	t0 := start(f.fs.clock)
	err := f.inner.Truncate(size)
	f.fs.c.note(opTruncate, 0, f.fs.clock, t0)
	return err
}

func (f *countFile) Close() error {
	t0 := start(f.fs.clock)
	err := f.inner.Close()
	f.fs.c.note(opClose, 0, f.fs.clock, t0)
	return err
}

// countCtx is a rank's mpi.Ctx with the filesystem view replaced by a
// counting one, for the rank itself and for every background activity
// it spawns (drain writers, read workers, the T-Rochdf I/O thread).
type countCtx struct {
	mpi.Ctx
	c     *fsCounts
	timed bool
	fs    rt.FS
}

func newCountCtx(ctx mpi.Ctx, c *fsCounts, timed bool) *countCtx {
	cc := &countCtx{Ctx: ctx, c: c, timed: timed}
	cc.fs = cc.wrap(ctx.FS(), ctx.Clock())
	return cc
}

func (cc *countCtx) wrap(fs rt.FS, clock rt.Clock) rt.FS {
	if !cc.timed {
		clock = nil
	}
	return &countFS{inner: fs, c: cc.c, clock: clock}
}

func (cc *countCtx) FS() rt.FS { return cc.fs }

func (cc *countCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	cc.Ctx.Spawn(name, func(tc rt.TaskCtx) {
		fn(&countTaskCtx{TaskCtx: tc, fs: cc.wrap(tc.FS(), tc.Clock())})
	})
}

type countTaskCtx struct {
	rt.TaskCtx
	fs rt.FS
}

func (t *countTaskCtx) FS() rt.FS { return t.fs }
