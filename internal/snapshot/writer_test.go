package snapshot

import (
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
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
