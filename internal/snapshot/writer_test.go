package snapshot

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// TestInlineBlockLeavesWithLastCopy is the inline driver's side of a
// replicated block's one charge: with a budget under two blocks of two
// copies each, the held submitter steps until the first block's last copy
// lands — two steps, the bytes still queued after the first — the queue is
// empty after Flush, and a MidDrain crash between a block's copies leaves
// the block and its bytes queued, neither released early nor counted twice.
func TestInlineBlockLeavesWithLastCopy(t *testing.T) {
	const bytes = 100
	blk := func(gen string) Block {
		return Block{File: gen + "_s000.rhdf", Replicas: []string{gen + "_s001r1.rhdf"}, Bytes: bytes}
	}
	run := func(crash func(faults.CrashPoint) bool, body func(w *Writer, reg *metrics.Registry)) {
		t.Helper()
		err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(1, func(ctx mpi.Ctx) error {
			reg := metrics.New()
			w := NewWriter(ctx, WriterConfig{
				Profile: hdf.NullProfile(), Buffering: true, Budget: 3 * bytes / 2,
				Metrics: reg, Prefix: "w.", ErrorSeries: "w.errors", Crash: crash,
			})
			defer w.Close()
			body(w, reg)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	run(nil, func(w *Writer, reg *metrics.Registry) {
		w.Submit(blk("a"))
		w.Submit(blk("a"))
		c := reg.Snapshot().Counters
		if c["w.overflow_stalls"] != 2 || c["w.blocks_written"] != 2 || c["w.blocks_buffered"] != 2 {
			t.Errorf("held submit: %d stalls, %d copies written, %d blocks buffered; want 2, 2, 2",
				c["w.overflow_stalls"], c["w.blocks_written"], c["w.blocks_buffered"])
		}
		if n := len(w.queue) - w.head; w.queued != bytes || n != 1 || w.landed != 0 {
			t.Errorf("after the hold: %d bytes, %d blocks queued, %d copies landed; want %d, 1, 0", w.queued, n, w.landed, bytes)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.queued != 0 || w.Pending() {
			t.Errorf("%d bytes queued after Flush, want 0", w.queued)
		}
		if got := reg.Snapshot().Gauges["w.buf_bytes_peak"]; got != 2*bytes {
			t.Errorf("buffer peak %v bytes, want %d", got, 2*bytes)
		}
	})

	crashed := false
	run(func(p faults.CrashPoint) bool { return p == faults.MidDrain }, func(w *Writer, _ *metrics.Registry) {
		w.Submit(blk("b"))
		func() {
			defer func() {
				if _, ok := recover().(Crashed); ok {
					crashed = true
				}
			}()
			w.Step()
		}()
		if n := len(w.queue) - w.head; w.queued != bytes || n != 1 || w.landed != 1 {
			t.Errorf("after a crash between copies: %d bytes, %d blocks queued, %d copies landed; want %d, 1, 1", w.queued, n, w.landed, bytes)
		}
	})
	if !crashed {
		t.Fatal("the MidDrain crash did not fire")
	}
}

// reopenFailFS makes the first write to every file opened (not created)
// through it short: half its bytes, then an error.
type reopenFailFS struct{ rt.FS }

func (f reopenFailFS) Open(name string) (rt.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &shortOnce{File: file}, nil
}

type shortOnce struct {
	rt.File
	done bool
}

func (f *shortOnce) WriteAt(p []byte, off int64) (int, error) {
	if f.done || len(p) < 2 {
		return f.File.WriteAt(p, off)
	}
	f.done = true
	n, _ := f.File.WriteAt(p[:len(p)/2], off)
	return n, errors.New("injected short write")
}

// TestFailedWriteAfterReopenPublishesNoGarbledDirectory: a file published
// after a whole write and reopened for a second, whose first dataset is
// written short over the published directory, is published again by the
// flush with the directory of exactly the datasets that were written (a
// failed block stops at the failing set) — it opens under its final name
// and every dataset reads back — while the
// flush reports the failure, so no commit takes the generation. Under the
// inline driver and the pool.
func TestFailedWriteAfterReopenPublishesNoGarbledDirectory(t *testing.T) {
	set := func(pane int) roccom.IOSet {
		data := make([]float64, 40)
		for i := range data {
			data[i] = float64(pane*100 + i)
		}
		return roccom.IOSet{Name: roccom.PanePrefix("fluid", pane) + "pressure", Type: hdf.F64, Dims: []int64{40}, Data: hdf.F64Bytes(data)}
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fsys := reopenFailFS{rt.NewMemFS()}
			reg := metrics.New()
			var flushErr error
			err := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
				w := NewWriter(ctx, WriterConfig{
					Profile: hdf.NullProfile(), Buffering: true, Workers: workers,
					Metrics: reg, Prefix: "w.", ErrorSeries: "w.errors",
				})
				defer w.Close()
				for i, sets := range [][]roccom.IOSet{{set(1), set(2)}, {set(3), set(4)}} {
					w.Submit(Block{File: "g_s000.rhdf", Sets: sets, Bytes: 640, Step: int32(i), Whole: true})
					for w.Pending() {
						w.Step()
					}
				}
				flushErr = w.Flush()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			if flushErr == nil || c["w.errors"] == 0 || c["w.files_reopened"] != 1 {
				t.Fatalf("flush %v, %d errors, %d reopens; want the short write reported after one reopen", flushErr, c["w.errors"], c["w.files_reopened"])
			}
			if _, err := fsys.Stat("g_s000.rhdf" + hdf.TmpSuffix); !errors.Is(err, rt.ErrNotExist) {
				t.Fatalf("the flush left the file staged (%v)", err)
			}
			r, err := hdf.Open(fsys, "g_s000.rhdf", rt.NewWallClock(), hdf.NullProfile())
			if err != nil {
				t.Fatalf("the published file does not open: %v", err)
			}
			defer r.Close()
			var names []string
			for _, d := range r.Datasets() {
				if _, err := r.ReadData(d); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				names = append(names, d.Name)
			}
			want := []string{"_meta", set(1).Name, set(2).Name} // the failed block's write stopped at its first set
			if !slices.Equal(names, want) {
				t.Fatalf("the published directory lists %v, want %v", names, want)
			}
		})
	}
}
