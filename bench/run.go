package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"genxio/internal/rt"
	"genxio/internal/stats"
)

// The repetition policy. Every repetition is a fresh world on a fresh
// filesystem. An untraced run discards warm-up repetitions, then measures
// at least minReps and as many more as fit -seconds; a metric's value is
// the median over repetitions and its spread is IQR ÷ median. A traced
// run spends the first part of its time on the layer replays, then
// alternates untraced and traced repetitions so that the tracing
// overhead is measured on neighbours in time.

type options struct {
	Seed     uint64
	Seconds  float64
	Trace    bool
	TraceDir string // traced runs write their spans here; "" writes none
	MinReps  int    // measured repetitions (traced: pairs) at least
	Warmups  int
	// ReplayBatches is how many batches each layer replay takes the
	// median of.
	ReplayBatches int

	corrupt func(rt.FS) error // tests only: see rep.corrupt
}

// measured is one metric of one workload.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"` // IQR ÷ median over the repetitions
	N      int     `json:"n"`      // repetitions behind the value
}

// workloadResult is one row of the benchmark.
type workloadResult struct {
	Name      string              `json:"name"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Reps      int                 `json:"reps"`
	Metrics   map[string]measured `json:"metrics"`
	Errors    []string            `json:"errors,omitempty"`

	budget []budgetLine
}

// endToEndOf derives the end-to-end metrics of one repetition.
func endToEndOf(r *repResult) map[string]float64 {
	mb := float64(r.StateBytesPerGen) / 1e6
	w, s, rd := r.seconds(callWrite), r.seconds(callSync), r.seconds(callRead)
	moved := float64(r.StateBytesPerGen) * float64(r.Gens+r.Restarts)
	return map[string]float64{
		"apparent_write_mbps":         mb * float64(r.Gens) / (w + s),
		"visible_write_mbps":          mb * float64(r.Gens) / w,
		"restart_mbps":                mb * float64(r.Restarts) / rd,
		"stored_bytes_per_state_byte": float64(r.StoredBytes) / (float64(r.RetainedGens) * float64(r.StateBytesPerGen)),
		"alloc_bytes_per_state_byte":  float64(r.Mem.TotalAlloc) / moved,
		"setup_s":                     r.SetupS,
	}
}

// complete reports whether the repetition ran its whole loop, so that its
// numbers mean what the others' do.
func complete(wl *workload, r *repResult) bool {
	return r.Gens == wl.gens() && r.Restarts == wl.Restarts && r.RetainedGens > 0
}

// runWorkload measures one workload.
func runWorkload(wl workload, opt options) workloadResult {
	start := time.Now()
	deadline := start.Add(time.Duration(opt.Seconds * float64(time.Second)))
	res := workloadResult{Name: wl.Name, Trace: opt.Trace, Metrics: make(map[string]measured)}
	spanID := 1 // 0 is the workload span
	one := func(trace bool) repResult {
		runtime.GC() // every repetition starts from a collected heap
		r := &rep{wl: wl, seed: opt.Seed, trace: trace, corrupt: opt.corrupt, spanBase: spanID, epoch: start}
		spanID += spanIDs(&wl)
		out := r.run()
		res.Attempted += out.Attempted
		res.Failed += out.Failed
		for _, e := range out.Errors {
			if len(res.Errors) < 8 {
				res.Errors = append(res.Errors, e)
			}
		}
		return out
	}

	var layers map[string]float64
	var spans []span
	if opt.Trace {
		var err error
		layers, spans, err = replayLayers(wl.Shape, opt.Seed, 0.35*opt.Seconds, opt.ReplayBatches, start)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
	}
	// order is one round: a plain repetition, and in a traced run a traced
	// one beside it.
	order := []bool{false}
	if opt.Trace {
		order = []bool{false, true}
	}
	var round time.Duration // how long the last round took
	for i := 0; i < opt.Warmups; i++ {
		t0 := time.Now()
		one(false)
		round = time.Duration(len(order)) * time.Since(t0)
	}
	var plain, traced []repResult
	for n := 0; n < opt.MinReps || (res.Failed == 0 && time.Now().Add(round).Before(deadline)); n++ {
		t0 := time.Now()
		for _, tr := range order {
			out := one(tr)
			switch {
			case !complete(&wl, &out):
			case tr:
				traced = append(traced, out)
			default:
				plain = append(plain, out)
			}
		}
		round = time.Since(t0)
		if opt.Trace {
			order[0], order[1] = order[1], order[0] // alternate which side goes first
		}
	}
	res.Reps = len(plain)

	if wl.Virtual && len(plain) > 0 {
		// The simulated platform must repeat exactly: same seed, same
		// virtual seconds and bytes, every repetition.
		res.Attempted++
		for _, r := range append(append([]repResult(nil), plain...), traced...) {
			if r.VirtualS != plain[0].VirtualS || r.StoredBytes != plain[0].StoredBytes || r.FssimWritten != plain[0].FssimWritten {
				res.Failed++
				res.Errors = append(res.Errors, fmt.Sprintf("virtual-time repetitions differ: %.9g s vs %.9g s", r.VirtualS, plain[0].VirtualS))
				break
			}
		}
	}

	if !opt.Trace {
		collect(res.Metrics, endToEnd, len(plain), func(i int) map[string]float64 { return endToEndOf(&plain[i]) })
	} else if len(traced) > 0 && len(plain) > 0 {
		vals := layerMetrics(&wl, traced)
		for k, v := range layers {
			vals[k] = v
		}
		vals["trace.overhead_share"] = overheadShare(plain, traced)
		res.budget = budget(&wl, vals, traced)
		vals["budget.write_unattributed_share"] = unattributed(res.budget, callWrite)
		vals["budget.read_unattributed_share"] = unattributed(res.budget, callRead)
		for _, spec := range perLayer {
			res.Metrics[spec.Name] = measured{Value: vals[spec.Name], Unit: spec.Unit, N: len(traced)}
		}
		if opt.TraceDir != "" {
			all := append(spans, span{ID: 0, Parent: -1, Name: wl.Name, Rank: -1})
			for i := range traced {
				all = append(all, traced[i].Spans...)
			}
			res.Attempted++
			if err := writeTrace(opt.TraceDir, wl.Name, all, traced); err != nil {
				res.Failed++
				res.Errors = append(res.Errors, err.Error())
			}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is %v", name, m.Value))
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	res.Correct = res.Failed == 0 && len(res.Metrics) > 0
	return res
}

// collect fills out with the median and spread of each spec over n
// repetitions.
func collect(out map[string]measured, specs []metricSpec, n int, of func(i int) map[string]float64) {
	series := make(map[string][]float64, len(specs))
	for i := 0; i < n; i++ {
		for k, v := range of(i) {
			series[k] = append(series[k], v)
		}
	}
	for _, spec := range specs {
		xs := series[spec.Name]
		out[spec.Name] = measured{Value: median(xs), Unit: spec.Unit, Spread: spread(xs), N: len(xs)}
	}
}

// visibleSeconds is everything the clients waited for in a repetition.
func visibleSeconds(r *repResult) float64 {
	return r.seconds(callWrite) + r.seconds(callSync) + r.seconds(callRead)
}

// overheadShare is how much longer the clients waited with recording on.
func overheadShare(plain, traced []repResult) float64 {
	med := func(rs []repResult) float64 {
		xs := make([]float64, len(rs))
		for i := range rs {
			xs[i] = visibleSeconds(&rs[i])
		}
		return median(xs)
	}
	return med(traced)/med(plain) - 1
}

// layerMetrics derives the (a)- and (c)-sourced layer metrics — driver
// spans and boundary counts — from the traced repetitions: latencies are
// pooled over all of them, everything else is the median per repetition.
func layerMetrics(wl *workload, traced []repResult) map[string]float64 {
	vals := make(map[string]float64)
	prefix := "rocpanda."
	if wl.TRochdf {
		prefix = "rochdf."
	}
	var skews []float64
	for k := callKind(0); k < numCallKinds; k++ {
		var ms []float64
		for r := range traced {
			for i := range traced[r].Durations[k] {
				d := traced[r].Durations[k][i]
				hi, lo := stats.MaxOf(d), stats.MinOf(d)
				ms = append(ms, hi*1e3)
				if hi > 0 {
					skews = append(skews, (hi-lo)/hi)
				}
			}
		}
		vals[prefix+callNames[k]+"_ms_p50"] = quantile(ms, 0.5)
		vals[prefix+callNames[k]+"_ms_p95"] = quantile(ms, 0.95)
	}
	if !wl.TRochdf {
		vals["rocpanda.client_skew_share"] = median(skews)
	}

	per := make(map[string][]float64)
	for i := range traced {
		for k, v := range countsOf(&traced[i]) {
			per[k] = append(per[k], v)
		}
	}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	return vals
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countsOf reads one traced repetition's boundary counts: the counting
// filesystem, runtime.MemStats, and the metrics registry the run was
// given. Counts are per generation or per restart, so they do not move
// when a repetition's length does.
func countsOf(r *repResult) map[string]float64 {
	gens, restarts := float64(r.Gens), float64(r.Restarts)
	state := float64(r.StateBytesPerGen)
	reg := r.Registry
	counter := func(name string) float64 { return float64(reg.Counters[name]) }
	histSum := func(name string) float64 { return reg.Histograms[name].Sum }
	v := map[string]float64{
		"rt.fs_write_calls_per_gen":    float64(r.FSWrite.Calls[opWrite]) / gens,
		"rt.fs_write_bytes_per_gen":    float64(r.FSWrite.Bytes[opWrite]) / gens,
		"rt.fs_creates_per_gen":        float64(r.FSWrite.Calls[opCreate]) / gens,
		"rt.fs_renames_per_gen":        float64(r.FSWrite.Calls[opRename]) / gens,
		"rt.fs_busy_s_per_gen":         r.FSWrite.busySeconds() / gens,
		"rt.fs_read_calls_per_restart": float64(r.FSRead.Calls[opRead]) / restarts,
		"rt.fs_read_bytes_per_restart": float64(r.FSRead.Bytes[opRead]) / restarts,
		"rt.fs_lists_per_restart":      float64(r.FSRead.Calls[opList]) / restarts,

		"go.heap_peak_mb":     float64(r.HeapPeak) / 1e6,
		"go.gc_pause_ms":      float64(r.Mem.PauseNs) / 1e6,
		"go.mallocs_per_pane": float64(r.Mem.Mallocs) / (float64(r.PanesPerGen) * (gens + restarts)),

		"sim.virtual_s_per_wall_s": ratio(r.VirtualS, r.WallS),
		"fssim.bytes_written":      float64(r.FssimWritten),
		"fssim.bytes_read":         float64(r.FssimRead),

		"rocpanda.buffer_peak_mb":                    reg.Gauges["rocpanda.server.buf_bytes_peak"] / 1e6,
		"rocpanda.restart.files_opened":              counter("rocpanda.restart.files_opened") / restarts,
		"rocpanda.restart.read_bytes_per_state_byte": counter("rocpanda.restart.bytes_read") / (restarts * state),
		"rocpanda.restart.bytes_wasted":              counter("rocpanda.restart.bytes_wasted") / restarts,
		"rocpanda.restart.replica_reads":             counter("rocpanda.restart.replica_reads") / restarts,

		"iosched.write.tasks":              counter("iosched.write.tasks") / gens,
		"iosched.write.busy_s":             histSum("iosched.write.busy_seconds") / gens,
		"iosched.write.overlap_share":      ratio(histSum("iosched.write.overlap_seconds"), histSum("iosched.write.busy_seconds")),
		"iosched.write.backpressure_waits": counter("iosched.write.backpressure_waits") / gens,
		"iosched.read.tasks":               counter("iosched.read.tasks") / restarts,
		"iosched.read.busy_s":              histSum("iosched.read.busy_seconds") / restarts,
		"iosched.read.overlap_share":       ratio(histSum("iosched.read.overlap_seconds"), histSum("iosched.read.busy_seconds")),
		"iosched.queue_depth_peak": math.Max(reg.Gauges["iosched.write.queue_depth"],
			math.Max(reg.Gauges["iosched.read.queue_depth"], reg.Gauges["iosched.scan.queue_depth"])),
	}
	// Without delta snapshots nothing is counted and every pane ships.
	v["rocpanda.write.dirty_pane_share"] = 1
	if dirty, clean := counter("rocpanda.write.dirty_panes"), counter("rocpanda.write.clean_panes"); dirty+clean > 0 {
		v["rocpanda.write.dirty_pane_share"] = dirty / (dirty + clean)
	}
	if scan, ok := reg.Histograms["rocpanda.server.restart_scan_seconds"]; ok {
		v["rocpanda.restart.scan_skew"] = ratio(scan.Max, scan.Min)
	}
	return v
}
