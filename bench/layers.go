package main

import (
	"fmt"
	"runtime"
	"time"

	"genxio/internal/catalog"
	"genxio/internal/delta"
	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// Layer replays: single-goroutine timing loops over each layer's exported
// functions, on the generated inputs of the workload's shape. They say
// what a layer costs alone; the traced run says what the layers cost
// together; the budget sets one beside the other. Every replay is the
// median of replayer.batches batches of at least replayer.batch each.

type replayer struct {
	batch   time.Duration
	batches int
	t0      time.Time // span times are seconds since t0
	spans   []span    // one per batch
	out     map[string]float64
	err     error // first failure; replays after it are skipped
}

// rate drives fn, which performs one pass of a layer's work and returns
// the units it processed and the seconds it took (fn times itself, so a
// pass may prepare its inputs untimed). It returns units per second.
func (rp *replayer) rate(name string, fn func() (units, seconds float64, err error)) float64 {
	if rp.err != nil {
		return 0
	}
	rates := make([]float64, 0, rp.batches)
	for b := 0; b < rp.batches; b++ {
		var units, secs float64
		start := time.Now()
		for secs < rp.batch.Seconds() {
			u, s, err := fn()
			if err != nil {
				rp.err = fmt.Errorf("replay %s: %w", name, err)
				return 0
			}
			units += u
			secs += s
			if time.Since(start) > 20*rp.batch {
				break // mostly untimed preparation: do not let it eat the run
			}
		}
		if secs > 0 {
			rates = append(rates, units/secs)
		}
		s0 := start.Sub(rp.t0).Seconds()
		rp.spans = append(rp.spans, span{Name: "replay " + name, Rank: -1, T0: s0, T1: s0 + time.Since(start).Seconds()})
	}
	return median(rates)
}

// pass is the common replay: fn makes one timed pass over units of work.
func (rp *replayer) pass(name string, units float64, fn func() error) float64 {
	return rp.rate(name, func() (float64, float64, error) {
		s, err := timeIt(fn)
		return units, s, err
	})
}

// mbps records a pass over bytes as MB/s; micros and millis record a pass
// over items as time per item.
func (rp *replayer) mbps(name string, bytes float64, fn func() error) {
	rp.out[name] = rp.pass(name, bytes, fn) / 1e6
}

func (rp *replayer) micros(name string, items float64, fn func() error) {
	rp.out[name] = perSecondToMicros(rp.pass(name, items, fn))
}

func (rp *replayer) millis(name string, fn func() error) {
	rp.out[name] = perSecondToMicros(rp.pass(name, 1, fn)) / 1e3
}

// timeIt returns the seconds fn took.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// perSecondToMicros converts a rate (items/s) to microseconds per item.
func perSecondToMicros(rate float64) float64 {
	if rate == 0 {
		return 0
	}
	return 1e6 / rate
}

// mallocsOf counts the heap objects fn allocates. Exact only while no
// other goroutine allocates, which holds during the replay pass.
func mallocsOf(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), err
}

// layerInputs is one client's generated window in every form a layer
// takes it.
type layerInputs struct {
	w      *roccom.Window
	ids    []int
	sets   [][]roccom.IOSet // per pane
	enc    [][]byte         // per pane, wire form
	bytes  float64          // payload bytes of the window
	nsets  float64          // datasets of the window
	maxEnc int
}

// each calls fn on every dataset of the given panes (indexes into ids;
// nil means all of them).
func (in *layerInputs) each(panes []int, fn func(s *roccom.IOSet) error) error {
	visit := func(i int) error {
		for k := range in.sets[i] {
			if err := fn(&in.sets[i][k]); err != nil {
				return err
			}
		}
		return nil
	}
	if panes == nil {
		for i := range in.sets {
			if err := visit(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range panes {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

func newLayerInputs(sh shape, seed uint64) (*layerInputs, error) {
	w, err := buildWindow(sh, 0, rankRNG(seed, 0))
	if err != nil {
		return nil, err
	}
	in := &layerInputs{w: w, ids: w.PaneIDs()}
	for _, id := range in.ids {
		p, _ := w.Pane(id)
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			return nil, err
		}
		for i := range sets {
			in.bytes += float64(sets[i].NumBytes())
		}
		in.nsets += float64(len(sets))
		enc := roccom.EncodeIOSets(sets)
		in.maxEnc = max(in.maxEnc, len(enc))
		in.sets = append(in.sets, sets)
		in.enc = append(in.enc, enc)
	}
	return in, nil
}

// replayLayers runs every replay within roughly budget seconds and
// returns the (b)-sourced layer metrics plus one span per batch, timed
// from epoch.
func replayLayers(sh shape, seed uint64, budget float64, batches int, epoch time.Time) (map[string]float64, []span, error) {
	const replays = 34 // timed loops below, to share the budget among
	rp := &replayer{
		batch:   max(time.Duration(budget/float64(replays*batches)*float64(time.Second)), 2*time.Millisecond),
		batches: batches, t0: epoch, out: make(map[string]float64),
	}
	in, err := newLayerInputs(sh, seed)
	if err != nil {
		return nil, nil, err
	}
	rp.roccom(in)
	rp.mpi(in)
	rp.iosched()
	rp.hdfAndFS(in)
	rp.catalogSnapshotDelta(in)
	return rp.out, rp.spans, rp.err
}

func (rp *replayer) roccom(in *layerInputs) {
	eachPane := func(fn func(i int) error) func() error {
		return func() error {
			for i := range in.ids {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	encode := eachPane(func(i int) error {
		roccom.EncodeIOSets(in.sets[i])
		return nil
	})
	rp.mbps("roccom.pack_mbps", in.bytes, eachPane(func(i int) error {
		p, _ := in.w.Pane(in.ids[i])
		_, err := roccom.PaneIOSets(in.w, p, "all")
		return err
	}))
	rp.mbps("roccom.encode_mbps", in.bytes, encode)
	rp.mbps("roccom.decode_mbps", in.bytes, eachPane(func(i int) error {
		_, err := roccom.DecodeIOSets(in.enc[i])
		return err
	}))
	// Each pass restores into a fresh window, made outside the timing.
	rp.out["roccom.restore_mbps"] = rp.rate("roccom.restore_mbps", func() (float64, float64, error) {
		target, err := emptyWindow()
		if err != nil {
			return 0, 0, err
		}
		s, err := timeIt(eachPane(func(i int) error {
			_, err := roccom.RestorePane(target, in.ids[i], in.sets[i])
			return err
		}))
		return in.bytes, s, err
	}) / 1e6
	n, _ := mallocsOf(encode)
	rp.out["roccom.encode_allocs_per_pane"] = n / float64(len(in.ids))
}

// mpi replays run on a real ChanWorld: rank 0 drives the batches, the
// other ranks echo until told to stop.
func (rp *replayer) mpi(in *layerInputs) {
	const (
		tagData = 1
		tagStop = 2
		rounds  = 200
	)
	inWorld := func(n int, rank0 func(c mpi.Comm), others func(c mpi.Comm)) {
		if rp.err != nil {
			return
		}
		err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(n, func(ctx mpi.Ctx) error {
			if ctx.Comm().Rank() == 0 {
				rank0(ctx.Comm())
			} else {
				others(ctx.Comm())
			}
			return nil
		})
		if err != nil && rp.err == nil {
			rp.err = err
		}
	}
	echo := func(c mpi.Comm) {
		for {
			data, st := c.Recv(0, mpi.AnyTag)
			if st.Tag == tagStop {
				return
			}
			c.Send(0, tagData, data)
		}
	}
	ping := make([]byte, 8)
	inWorld(2, func(c mpi.Comm) {
		rp.micros("mpi.pingpong_us", rounds, func() error {
			for i := 0; i < rounds; i++ {
				c.Send(1, tagData, ping)
				c.Recv(1, tagData)
			}
			return nil
		})
		c.Send(1, tagStop, nil)
	}, echo)

	// Stream: pane-sized messages one way, one small ack per burst.
	const burst = 16
	payload := make([]byte, in.maxEnc)
	inWorld(2, func(c mpi.Comm) {
		rp.mbps("mpi.stream_mbps", float64(burst*len(payload)), func() error {
			for i := 0; i < burst; i++ {
				c.Send(1, tagData, payload)
			}
			c.Recv(1, tagData)
			return nil
		})
		c.Send(1, tagStop, nil)
	}, func(c mpi.Comm) {
		for got := 0; ; {
			_, st := c.Recv(0, mpi.AnyTag)
			if st.Tag == tagStop {
				return
			}
			if got++; got%burst == 0 {
				c.Send(0, tagData, nil)
			}
		}
	})

	// Collectives among four ranks, as many as a wall-clock workload has
	// clients. Rank 0 broadcasts go (1) or stop (0) before each pass.
	collective := func(name string, op func(c mpi.Comm)) {
		pass := func(c mpi.Comm) {
			for i := 0; i < rounds; i++ {
				op(c)
			}
		}
		inWorld(4, func(c mpi.Comm) {
			// The go-ahead is outside the timing.
			rp.out[name] = perSecondToMicros(rp.rate(name, func() (float64, float64, error) {
				c.Bcast(0, []byte{1})
				s, _ := timeIt(func() error { pass(c); return nil })
				return rounds, s, nil
			}))
			c.Bcast(0, []byte{0})
		}, func(c mpi.Comm) {
			for c.Bcast(0, nil)[0] == 1 {
				pass(c)
			}
		})
	}
	collective("mpi.barrier_us", func(c mpi.Comm) { c.Barrier() })
	collective("mpi.allreduce_us", func(c mpi.Comm) { c.AllreduceMax(1) })
}

func (rp *replayer) iosched() {
	if rp.err != nil {
		return
	}
	const tasks = 256
	noop := func(rt.TaskCtx, iosched.WorkerState) iosched.Result { return iosched.Result{} }
	err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(1, func(ctx mpi.Ctx) error {
		eng := iosched.New(ctx, iosched.Config{Name: "bench", Workers: 1, QueueCap: 8})
		defer eng.Close()
		// Submit → completion of no-op tasks: the scheduler's own cost
		// per task (queue hand-offs, accounting), flush included once.
		rp.micros("iosched.task_overhead_us", tasks, func() error {
			for i := 0; i < tasks; i++ {
				eng.Submit(&iosched.Task{Class: iosched.ClassWrite, Key: "f", Cost: 1, Run: noop})
			}
			return eng.Flush()
		})
		rp.micros("iosched.flush_us", 1, eng.Flush)
		return nil
	})
	if err != nil && rp.err == nil {
		rp.err = err
	}
}

// writeSets writes the given panes' datasets (nil: all) as one RHDF file.
func writeSets(fs rt.FS, name string, in *layerInputs, panes []int, compress bool) error {
	wr, err := hdf.Create(fs, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		return err
	}
	wr.Compress = compress
	err = in.each(panes, func(s *roccom.IOSet) error {
		return wr.CreateDataset(s.Name, s.Type, s.Dims, s.Attrs, s.Data)
	})
	if err != nil {
		wr.Close()
		return err
	}
	return wr.Close()
}

func readAll(fs rt.FS, name string) error {
	r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		return err
	}
	defer r.Close()
	for _, d := range r.Datasets() {
		if _, err := r.ReadData(d); err != nil {
			return err
		}
	}
	return nil
}

func (rp *replayer) hdfAndFS(in *layerInputs) {
	fs := rt.NewMemFS()
	const file = "l/w_s000.rhdf"
	write := func() error { return writeSets(fs, file, in, nil, false) }
	rp.mbps("hdf.write_mbps", in.bytes, write)
	// The same passes, per dataset instead of per byte.
	rp.out["hdf.write_us_per_dataset"] = perSecondToMicros(rp.out["hdf.write_mbps"] * 1e6 / in.bytes * in.nsets)
	n, _ := mallocsOf(write)
	rp.out["hdf.write_allocs_per_dataset"] = n / in.nsets

	rp.mbps("hdf.read_mbps", in.bytes, func() error { return readAll(fs, file) })
	rp.micros("hdf.open_us_per_dataset", in.nsets, func() error {
		r, err := hdf.Open(fs, file, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			return err
		}
		return r.Close()
	})
	rp.micros("hdf.scandir_us_per_dataset", in.nsets, func() error {
		_, _, _, err := hdf.ScanDir(fs, file)
		return err
	})
	var sink uint32
	rp.mbps("hdf.crc_mbps", in.bytes, func() error {
		return in.each(nil, func(s *roccom.IOSet) error {
			sink ^= hdf.Checksum(s.Data)
			return nil
		})
	})

	// Deflate is layer-only (no end-to-end workload compresses) and slow
	// on random floats, so one pane stands for the window.
	const zfile = "l/z_s000.rhdf"
	var paneBytes, maxSet float64
	in.each([]int{0}, func(s *roccom.IOSet) error {
		paneBytes += float64(s.NumBytes())
		maxSet = max(maxSet, float64(s.NumBytes()))
		return nil
	})
	rp.mbps("hdf.deflate_mbps", paneBytes, func() error { return writeSets(fs, zfile, in, []int{0}, true) })
	rp.mbps("hdf.inflate_mbps", paneBytes, func() error { return readAll(fs, zfile) })

	// The backing store alone: the same bytes, one WriteAt or ReadAt per
	// dataset, no format. Panes are uniform, so pane 0 has the largest
	// dataset.
	rp.mbps("rt.memfs_write_mbps", in.bytes, func() error {
		f, err := fs.Create("l/raw")
		if err != nil {
			return err
		}
		var off int64
		err = in.each(nil, func(s *roccom.IOSet) error {
			n, err := f.WriteAt(s.Data, off)
			off += int64(n)
			return err
		})
		if err != nil {
			return err
		}
		return f.Close()
	})
	buf := make([]byte, int(maxSet))
	rp.mbps("rt.memfs_read_mbps", in.bytes, func() error {
		f, err := fs.Open("l/raw")
		if err != nil {
			return err
		}
		var off int64
		err = in.each(nil, func(s *roccom.IOSet) error {
			n, err := f.ReadAt(buf[:len(s.Data)], off)
			off += int64(n)
			return err
		})
		if err != nil {
			return err
		}
		return f.Close()
	})
}

// chainFixture is what a features run leaves on the filesystem, built
// directly: eight generations of one client's window as two server files
// each, a full generation every fourth and deltas carrying a quarter of
// the panes chained to their predecessor — so Prune(retain 4) has an
// epoch to remove and LoadChain a depth-3 chain to walk.
type chainFixture struct {
	fs    *rt.MemFS
	bases []string
	old   map[string][]byte // the four oldest generations' files, to undo a prune
}

const fixturePrefix = "fx/"

func newChainFixture(in *layerInputs) (*chainFixture, error) {
	fx := &chainFixture{fs: rt.NewMemFS(), old: make(map[string][]byte)}
	universe := map[string][]int{windowName: in.ids}
	for g := 0; g < 8; g++ {
		base := fmt.Sprintf("%ssnap%06d", fixturePrefix, g)
		files := [2][]int{{}, {}} // non-nil: an empty file, not every pane
		for i := range in.ids {
			if g%fullEvery == 0 || i%fullEvery == g%fullEvery {
				files[i%2] = append(files[i%2], i)
			}
		}
		for s, panes := range files {
			if err := writeSets(fx.fs, fmt.Sprintf("%s_s%03d.rhdf", base, s), in, panes, false); err != nil {
				return nil, err
			}
		}
		var chain *snapshot.ChainInfo
		if g%fullEvery != 0 {
			chain = &snapshot.ChainInfo{Base: fx.bases[g-1], Depth: g % fullEvery, Panes: universe}
		}
		if _, err := snapshot.CommitChained(fx.fs, base, int64(g), float64(g), chain); err != nil {
			return nil, err
		}
		fx.bases = append(fx.bases, base)
	}
	names, err := fx.fs.List(fixturePrefix)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if name >= fx.bases[4] {
			continue
		}
		f, err := fx.fs.Open(name)
		if err != nil {
			return nil, err
		}
		size, _ := f.Size()
		data := make([]byte, size)
		if size > 0 {
			if _, err := f.ReadAt(data, 0); err != nil {
				return nil, err
			}
		}
		fx.old[name] = data
	}
	return fx, nil
}

// unprune puts the four oldest generations back.
func (fx *chainFixture) unprune() error {
	for name, data := range fx.old {
		f, err := fx.fs.Create(name)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (rp *replayer) catalogSnapshotDelta(in *layerInputs) {
	if rp.err != nil {
		return
	}
	fx, err := newChainFixture(in)
	if err != nil {
		rp.err = fmt.Errorf("chain fixture: %w", err)
		return
	}
	full, head := fx.bases[4], fx.bases[7]
	panes := float64(len(in.ids))

	// catalog: the full generation's two files.
	type scanned struct {
		name string
		sets []*hdf.Dataset
	}
	var files []scanned
	for s := 0; s < 2; s++ {
		name := fmt.Sprintf("%s_s%03d.rhdf", full, s)
		_, _, sets, err := hdf.ScanDir(fx.fs, name)
		if err != nil {
			rp.err = err
			return
		}
		files = append(files, scanned{name, sets})
	}
	build := func() *catalog.Catalog {
		c := &catalog.Catalog{}
		for _, f := range files {
			c.AddFile(f.name, f.sets)
		}
		return c
	}
	cat := build()
	entries := float64(len(cat.Entries))
	blob := cat.Encode()
	rp.micros("catalog.build_us_per_entry", entries, func() error { build(); return nil })
	rp.mbps("catalog.encode_mbps", float64(len(blob)), func() error { cat.Encode(); return nil })
	rp.mbps("catalog.decode_mbps", float64(len(blob)), func() error { _, err := catalog.Decode(blob); return err })
	rp.out["catalog.bytes_per_entry"] = float64(len(blob)) / entries
	wanted := make(map[int]bool, len(in.ids))
	for _, id := range in.ids {
		wanted[id] = true
	}
	rp.micros("catalog.plan_us_per_pane", panes, func() error {
		for _, plan := range cat.PlanReads(windowName, wanted) {
			catalog.Coalesce(plan.Entries, 0)
		}
		return nil
	})
	chain, err := snapshot.LoadChain(fx.fs, head)
	if err != nil {
		rp.err = err
		return
	}
	cats := snapshot.ChainCatalogs(chain)
	rp.micros("catalog.resolve_us_per_pane", panes, func() error {
		catalog.ResolvePanes(cats, windowName, wanted)
		return nil
	})

	// snapshot: what sits inside Sync (commit, prune) and in front of a
	// restart (generation walk, chain load), and the scrub.
	rp.millis("snapshot.commit_ms", func() error { _, err := snapshot.Commit(fx.fs, full, 4, 4); return err })
	rp.millis("snapshot.generations_ms", func() error { _, err := snapshot.Generations(fx.fs, fixturePrefix); return err })
	rp.millis("snapshot.loadchain_ms", func() error { _, err := snapshot.LoadChain(fx.fs, head); return err })
	// Each pass first puts back, untimed, the epoch the last one removed.
	rp.out["snapshot.prune_ms"] = perSecondToMicros(rp.rate("snapshot.prune_ms", func() (float64, float64, error) {
		if err := fx.unprune(); err != nil {
			return 0, 0, err
		}
		s, err := timeIt(func() error {
			removed, err := snapshot.Prune(fx.fs, fixturePrefix, retainGens)
			if err == nil && len(removed) != 4 {
				err = fmt.Errorf("prune removed %d generations, want 4", len(removed))
			}
			return err
		})
		return 1, s, err
	})) / 1e3
	var scrubbed float64
	names, _ := fx.fs.List(fixturePrefix)
	for _, name := range names {
		size, _ := fx.fs.Stat(name)
		scrubbed += float64(size)
	}
	rp.mbps("snapshot.fsck_mbps", scrubbed, func() error {
		reports, err := snapshot.Fsck(fx.fs, fixturePrefix)
		if err == nil && !snapshot.Clean(reports) {
			err = fmt.Errorf("fixture does not scrub clean:\n%s", snapshot.Format(reports))
		}
		return err
	})

	// delta: every pane shipped once, a quarter dirtied since.
	tr := delta.NewTracker()
	for i, id := range in.ids {
		tr.MarkShipped(windowName, id, in.w.DirtyEpoch(id), int64(len(in.enc[i])))
		if i%fullEvery == 0 {
			in.w.MarkDirty(id)
		}
	}
	rp.micros("delta.partition_us_per_pane", panes, func() error {
		if dirty, _, _ := tr.Partition(in.w); len(dirty) != (len(in.ids)+fullEvery-1)/fullEvery {
			return fmt.Errorf("partition found %d dirty panes", len(dirty))
		}
		return nil
	})
}
