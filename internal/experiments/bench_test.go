package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// benchRuns is two RunBench runs with identical options, made once and
// shared by the tests below: the determinism tests compare the two, the
// others read the first.
var benchRuns struct {
	once sync.Once
	a, b *BenchResult
	err  error
}

func benchPair(t *testing.T) (*BenchResult, *BenchResult) {
	t.Helper()
	benchRuns.once.Do(func() {
		opts := BenchOpts{Scale: 0.05, Procs: 8, Seed: 3, Stride: 100}
		if benchRuns.a, benchRuns.err = RunBench(opts); benchRuns.err == nil {
			benchRuns.b, benchRuns.err = RunBench(opts)
		}
	})
	if benchRuns.err != nil {
		t.Fatal(benchRuns.err)
	}
	return benchRuns.a, benchRuns.b
}

func TestBenchJSONDeterministicAndParseable(t *testing.T) {
	a, b := benchPair(t)
	var ba, bb bytes.Buffer
	if err := a.WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("same-seed bench JSON differs between runs")
	}
	var round BenchResult
	if err := json.Unmarshal(ba.Bytes(), &round); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if round.Schema != BenchSchema || len(round.IOs) != 9 {
		t.Fatalf("roundtrip schema=%q ios=%d", round.Schema, len(round.IOs))
	}
}

// TestBenchDeltaWriteSavings is the delta acceptance criterion: on the
// bench workload the rocpanda-delta entry (FullEvery=4) must write at
// least 40% fewer server bytes per generation than the full-snapshot
// rocpanda entry, while its measured restart still succeeds (chain-aware,
// visible read > 0).
func TestBenchDeltaWriteSavings(t *testing.T) {
	res, _ := benchPair(t)
	byIO := map[string]IOBenchResult{}
	for _, io := range res.IOs {
		byIO[io.IO] = io
	}
	full, ok := byIO["rocpanda"]
	if !ok {
		t.Fatal("rocpanda entry missing")
	}
	delta, ok := byIO["rocpanda-delta"]
	if !ok {
		t.Fatal("rocpanda-delta entry missing")
	}
	fb := full.Metrics.Counters["rocpanda.server.bytes_written"]
	db := delta.Metrics.Counters["rocpanda.server.bytes_written"]
	if fb == 0 || db == 0 {
		t.Fatalf("bytes_written full=%d delta=%d", fb, db)
	}
	saved := 1 - float64(db)/float64(fb)
	if saved < 0.40 {
		t.Fatalf("delta entry saved only %.0f%% of bytes written (full %d, delta %d), want >= 40%%",
			saved*100, fb, db)
	}
	if delta.Metrics.Counters["rocpanda.write.clean_panes"] == 0 {
		t.Fatal("delta entry never skipped a clean pane")
	}
	// The measured restart went through the chain path.
	if delta.VisibleRead <= 0 {
		t.Fatal("delta restart not measured")
	}
	if d := delta.Metrics.Gauges["rocpanda.restart.chain_depth"]; d < 1 {
		t.Fatalf("restart chain depth gauge %v, want >= 1", d)
	}
	// R=2 composes: the replicated delta entry writes roughly twice the
	// delta bytes, still well under the unreplicated full run.
	dr2, ok := byIO["rocpanda-delta-r2"]
	if !ok {
		t.Fatal("rocpanda-delta-r2 entry missing")
	}
	if b := dr2.Metrics.Counters["rocpanda.server.bytes_written"]; b <= db {
		t.Fatalf("delta-r2 wrote %d bytes, not above unreplicated delta's %d", b, db)
	}
}

// TestBenchParallelReadSpeedsUpRestart is the read engine's acceptance
// criterion: on the same workload, seed and platform, the parallel-read
// rocpanda run must show a lower restart (visible read) cost than the
// serial one — the per-worker stream pacing of the simulated NFS overlaps
// across the pool — at identical bytes restored.
func TestBenchParallelReadSpeedsUpRestart(t *testing.T) {
	res, _ := benchPair(t)
	byIO := map[string]IOBenchResult{}
	for _, io := range res.IOs {
		byIO[io.IO] = io
	}
	ser, ok := byIO["rocpanda"]
	if !ok {
		t.Fatal("rocpanda entry missing")
	}
	par, ok := byIO["rocpanda-pread"]
	if !ok {
		t.Fatal("rocpanda-pread entry missing")
	}
	if par.VisibleRead >= ser.VisibleRead {
		t.Fatalf("parallel visible read %.4fs not below serial's %.4fs", par.VisibleRead, ser.VisibleRead)
	}
	if par.VisibleRead <= 0 {
		t.Fatal("parallel restart read not measured")
	}
	sb := ser.Metrics.Counters["rocpanda.restart.bytes_read"]
	pb := par.Metrics.Counters["rocpanda.restart.bytes_read"]
	if pb != sb || pb == 0 {
		t.Fatalf("restart bytes differ: parallel %d, serial %d", pb, sb)
	}
	if par.Metrics.Counters["rocpanda.read.errors"] != 0 {
		t.Fatalf("read errors = %d on a healthy bench", par.Metrics.Counters["rocpanda.read.errors"])
	}
	if par.Metrics.Gauges["iosched.read.queue_depth"] < 2 {
		t.Fatalf("read queue peak %.0f, want >= 2 (the pool ran wide)",
			par.Metrics.Gauges["iosched.read.queue_depth"])
	}
}

// TestBenchAsyncDrainOverlapsWriteback is the tentpole's acceptance
// criterion: on the same workload, seed and platform, the async-drain
// rocpanda run must show lower application-visible write+sync cost than
// the synchronous-drain run — the writeback moved into the background —
// with the overlap visible in the drain metrics.
func TestBenchAsyncDrainOverlapsWriteback(t *testing.T) {
	res, _ := benchPair(t)
	byIO := map[string]IOBenchResult{}
	for _, io := range res.IOs {
		byIO[io.IO] = io
	}
	syn, ok := byIO["rocpanda"]
	if !ok {
		t.Fatal("rocpanda entry missing")
	}
	asy, ok := byIO["rocpanda-async"]
	if !ok {
		t.Fatal("rocpanda-async entry missing")
	}
	sv, av := syn.VisibleWrite+syn.SyncWait, asy.VisibleWrite+asy.SyncWait
	if av >= sv {
		t.Fatalf("async visible write+sync %.4fs not below sync drain's %.4fs", av, sv)
	}
	ov := asy.Metrics.Histograms["iosched.write.overlap_seconds"]
	if ov.Count == 0 || ov.Sum <= 0 {
		t.Fatalf("no overlapped drain recorded: %+v", ov)
	}
	if asy.Metrics.Gauges["iosched.write.queue_depth"] <= 0 {
		t.Fatal("drain queue never held a block")
	}
	// Same workload, same data: the async run ships exactly the bytes the
	// sync run does.
	if asy.BytesOut != syn.BytesOut {
		t.Fatalf("bytes out differ: async %d, sync %d", asy.BytesOut, syn.BytesOut)
	}
}

func TestBenchCarriesPerModuleMetrics(t *testing.T) {
	// The committed baseline's size: sixteen processors, so Rocpanda runs
	// two servers and the restart deal has something to balance.
	opts := BenchOpts{Scale: 0.1, Procs: 16, Seed: 1, Stride: 100}
	res, err := RunBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	byIO := map[string]IOBenchResult{}
	for _, io := range res.IOs {
		byIO[io.IO] = io
	}
	for io, series := range map[string][]string{
		"rochdf":   {"rochdf.files_created", "rochdf.bytes_out", "hdf.datasets_written"},
		"trochdf":  {"trochdf.files_created", "trochdf.bytes_out"},
		"rocpanda": {"rocpanda.server.blocks_written", "rocpanda.client.bytes_out", "rocpanda.server.reads_served"},
	} {
		r, ok := byIO[io]
		if !ok {
			t.Fatalf("module %s missing from bench", io)
		}
		for _, name := range series {
			if r.Metrics.Counters[name] == 0 {
				t.Errorf("%s: counter %s = 0, want > 0", io, name)
			}
		}
		if r.VisibleWrite <= 0 || r.BytesOut <= 0 {
			t.Errorf("%s: report not populated: %+v", io, r)
		}
	}
	// Drain histograms: the background-writing modules must show work the
	// application did not see.
	if byIO["rocpanda"].Metrics.Histograms["rocpanda.server.drain_seconds"].Count == 0 {
		t.Error("rocpanda drain histogram empty")
	}
	if byIO["trochdf"].Metrics.Histograms["trochdf.drain_seconds"].Count == 0 {
		t.Error("trochdf background-write histogram empty")
	}
	// Each row's durability line reads its own module's restart series.
	for i, io := range res.IOs {
		module, _, _ := strings.Cut(io.IO, "-")
		res.IOs[i].Metrics.Counters[module+".restart.generations_scanned"] = int64(100 + i)
	}
	out := res.Format()
	for i, io := range res.IOs {
		want := fmt.Sprintf("%-10s durability: %d checksum failures, %d restart generations scanned",
			io.IO, io.Metrics.Counters["hdf.checksum_failures"], 100+i)
		if !strings.Contains(out, want) {
			t.Errorf("Format lacks %q", want)
		}
	}
	// MeasureRestart ran for rochdf and rocpanda.
	if byIO["rochdf"].VisibleRead <= 0 || byIO["rocpanda"].VisibleRead <= 0 {
		t.Error("restart read not measured")
	}
	// A replicated full generation restarts from its primaries, one per
	// server: replication may cost a little metadata, not a second file on
	// one server while the other idles.
	if r1, r2 := byIO["rocpanda"].VisibleRead, byIO["rocpanda-r2"].VisibleRead; r2 <= 0 || r2 > 1.25*r1 {
		t.Errorf("rocpanda-r2 visible read %.3f s, want within 1.25x of rocpanda's %.3f s", r2, r1)
	}
}

func TestBenchTraceExportsDeterministic(t *testing.T) {
	a, b := benchPair(t)
	for i := range a.IOs {
		for _, format := range []string{"jsonl", "chrome"} {
			var sa, sb strings.Builder
			if err := a.IOs[i].Trace.WriteFile(&sa, format); err != nil {
				t.Fatal(err)
			}
			if err := b.IOs[i].Trace.WriteFile(&sb, format); err != nil {
				t.Fatal(err)
			}
			if sa.String() != sb.String() {
				t.Fatalf("%s: %s trace export differs between same-seed runs", a.IOs[i].IO, format)
			}
			if sa.Len() == 0 {
				t.Fatalf("%s: empty %s trace", a.IOs[i].IO, format)
			}
		}
	}
}
