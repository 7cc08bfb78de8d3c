package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"genxio/internal/faults"
	"genxio/internal/rt"
)

// toy shrinks a workload to the smallest loop that still goes through
// every path: one epoch (a whole delta chain where epochs are single
// writes), one restart, a few small panes.
func toy(wl workload) workload {
	wl.Epochs = 1
	if wl.SyncEveryWrite {
		wl.Epochs = fullEvery
	}
	wl.Restarts = 1
	wl.Shape = shape{Panes: 4, Nodes: 48}
	return wl
}

var toyOptions = options{Seed: 7, MinReps: 1, ReplayBatches: 1}

// TestSmokeEveryWorkload runs every workload at toy size, untraced and
// traced (which includes every layer replay at one batch), and checks
// that each pass reports exactly the metrics BENCHMARK.json promises.
func TestSmokeEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			opt := toyOptions
			opt.Trace = trace
			opt.TraceDir = t.TempDir()
			res := runWorkload(toy(wl), opt)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v, %d failed of %d: %v", wl.Name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(specs))
			}
			for _, spec := range specs {
				m, ok := res.Metrics[spec.Name]
				if !ok || m.Unit != spec.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", wl.Name, trace, spec.Name, m.Unit, spec.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", wl.Name, spec.Name, m.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(&res)), &line); err != nil || !line.Correct || len(line.Metrics) != len(specs) {
				t.Fatalf("%s: contract line %s: %v", wl.Name, contractLine(&res), err)
			}
			if trace {
				checkTraceFiles(t, opt.TraceDir, &wl, &res)
			}
		}
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("smoke took %v; tier-1 wants it under 10 s", el)
	}
}

// checkTraceFiles checks that the traced pass left a loadable Chrome
// trace whose call spans hang off generation spans, and the layer
// separation the workloads are built for.
func checkTraceFiles(t *testing.T, dir string, wl *workload, res *workloadResult) {
	t.Helper()
	data, err := os.ReadFile(dir + "/" + wl.Name + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: trace does not load: %v", wl.Name, err)
	}
	names := make(map[string]int)
	byID := make(map[int]string)
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		byID[e.Args.ID] = e.Name
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "write" && byID[e.Args.Parent] != "generation" {
			t.Fatalf("%s: write span's parent is %q", wl.Name, byID[e.Args.Parent])
		}
	}
	for _, want := range []string{"repetition", "generation", "epoch-sync", "restart", "write", "sync", "read", "replay hdf.write_mbps"} {
		if names[want] == 0 {
			t.Errorf("%s: trace has no %q span (has %v)", wl.Name, want, names)
		}
	}
	if _, err := os.Stat(dir + "/" + wl.Name + ".jsonl"); err != nil {
		t.Error(err)
	}

	usesSched := wl.TRochdf || wl.Panda(1).AsyncDrain
	if tasks := res.Metrics["iosched.write.tasks"].Value; (tasks > 0) != usesSched {
		t.Errorf("%s: iosched.write.tasks = %g, scheduler in use: %v", wl.Name, tasks, usesSched)
	}
	if rd := res.Metrics["iosched.read.tasks"].Value; (rd > 0) != (!wl.TRochdf && wl.Panda(1).ParallelRead) {
		t.Errorf("%s: iosched.read.tasks = %g", wl.Name, rd)
	}
	if v := res.Metrics["sim.virtual_s_per_wall_s"].Value; (v > 0) != wl.Virtual {
		t.Errorf("%s: sim.virtual_s_per_wall_s = %g", wl.Name, v)
	}
}

// TestCorruptionIsCounted proves the correctness gate: one bit flipped
// in a committed RHDF file between the write loop and the restarts must
// surface as failed operations, for both services.
func TestCorruptionIsCounted(t *testing.T) {
	for _, name := range []string{"panda-exposed", "panda-features", "trochdf-individual"} {
		opt := toyOptions
		flipped := ""
		opt.corrupt = func(fs rt.FS) error {
			names, err := fs.List(snapPrefix)
			if err != nil {
				return err
			}
			for i := len(names) - 1; i >= 0; i-- {
				if strings.HasSuffix(names[i], ".rhdf") {
					flipped = names[i]
					// Past the header, inside the first dataset's payload.
					return faults.FlipBit(fs, flipped, 8*200+3)
				}
			}
			return nil
		}
		res := runWorkload(toy(*findWorkload(name)), opt)
		if flipped == "" {
			t.Fatalf("%s: found no committed file to corrupt", name)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: bit flip in %s went unnoticed (%d failed of %d)", name, flipped, res.Failed, res.Attempted)
		}
		if !strings.Contains(strings.Join(res.Errors, "\n"), "fsck not clean") {
			t.Errorf("%s: fsck did not report the damage: %v", name, res.Errors)
		}
	}
}

// oneRep runs a single repetition of a toy workload.
func oneRep(name string, seed uint64, trace bool) repResult {
	r := &rep{wl: toy(*findWorkload(name)), seed: seed, trace: trace, epoch: time.Now()}
	return r.run()
}

// TestSameSeedSameInputsAndCounts: the seed fixes the inputs and every
// filesystem call count, and another seed gives other inputs and (shapes
// being uniform) the same counts. Byte totals repeat exactly in virtual
// time; on goroutine ranks they repeat to a few bytes, because the order
// in which two clients' blocks reach a server decides a file's directory
// CRC, and the manifest spells CRCs and sizes in decimal.
func TestSameSeedSameInputsAndCounts(t *testing.T) {
	near := func(a, b int64) bool { return a == b || (a > 0 && float64(max(a-b, b-a))/float64(a) < 1e-3) }
	for _, wl := range workloads {
		a, b, c := oneRep(wl.Name, 3, false), oneRep(wl.Name, 3, false), oneRep(wl.Name, 4, false)
		if a.Failed+b.Failed+c.Failed != 0 {
			t.Fatalf("%s: failures: %v %v %v", wl.Name, a.Errors, b.Errors, c.Errors)
		}
		if a.InputDigest != b.InputDigest || a.InputDigest == 0 {
			t.Errorf("%s: same seed, input digests %x and %x", wl.Name, a.InputDigest, b.InputDigest)
		}
		if a.InputDigest == c.InputDigest {
			t.Errorf("%s: seeds 3 and 4 generate the same inputs", wl.Name)
		}
		for i, other := range []repResult{b, c} {
			// Another seed dirties other panes, so a chained restart
			// plans other reads.
			sameReads := a.FSRead.Calls == other.FSRead.Calls || (i == 1 && wl.Features)
			if a.FSWrite.Calls != other.FSWrite.Calls || !sameReads {
				t.Errorf("%s: filesystem call counts differ:\n%v %v\n%v %v", wl.Name,
					a.FSWrite.Calls, a.FSRead.Calls, other.FSWrite.Calls, other.FSRead.Calls)
			}
			if !near(a.StoredBytes, other.StoredBytes) || !near(a.FSWrite.Bytes[opWrite], other.FSWrite.Bytes[opWrite]) ||
				!near(a.FSRead.Bytes[opRead], other.FSRead.Bytes[opRead]) {
				t.Errorf("%s: filesystem bytes differ: stored %d and %d", wl.Name, a.StoredBytes, other.StoredBytes)
			}
		}
		if wl.Virtual && (a.StoredBytes != b.StoredBytes || a.FSWrite != b.FSWrite || a.FSRead != b.FSRead) {
			t.Errorf("%s: same seed in virtual time, filesystem totals differ", wl.Name)
		}
	}
}

// TestVirtualWorkloadsRepeatExactly: on the simulated platform the whole
// metric set of the virtual clock — every call duration of every client,
// the byte counts, the registry — is bit-identical across runs.
func TestVirtualWorkloadsRepeatExactly(t *testing.T) {
	for _, name := range []string{"vt-turing-faithful", "vt-turing-features"} {
		a, b := oneRep(name, 5, true), oneRep(name, 5, true)
		if a.Failed+b.Failed != 0 {
			t.Fatalf("%s: failures: %v %v", name, a.Errors, b.Errors)
		}
		ja, _ := json.Marshal([]interface{}{a.Durations, a.VirtualS, a.FssimWritten, a.FssimRead, a.StoredBytes, a.FSWrite, a.FSRead, a.Registry})
		jb, _ := json.Marshal([]interface{}{b.Durations, b.VirtualS, b.FssimWritten, b.FssimRead, b.StoredBytes, b.FSWrite, b.FSRead, b.Registry})
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: two runs of seed 5 differ:\n%s\n%s", name, ja, jb)
		}
		ea, eb := endToEndOf(&a), endToEndOf(&b)
		for _, m := range []string{"apparent_write_mbps", "visible_write_mbps", "restart_mbps", "stored_bytes_per_state_byte"} {
			if ea[m] != eb[m] {
				t.Errorf("%s: %s = %v and %v", name, m, ea[m], eb[m])
			}
		}
		if c := oneRep(name, 6, false); c.VirtualS == a.VirtualS {
			t.Errorf("%s: the seed does not reach the platform's noise stream", name)
		}
	}
}

// TestCompare: -compare applies each metric's bound per workload row.
func TestCompare(t *testing.T) {
	row := func(apparent, spreadOf float64, correct bool) resultFile {
		m := make(map[string]measured)
		for _, spec := range endToEnd {
			m[spec.Name] = measured{Value: 100, Unit: spec.Unit, N: 5}
		}
		m["apparent_write_mbps"] = measured{Value: apparent, Unit: "MB/s", Spread: spreadOf, N: 5}
		return resultFile{Results: []workloadResult{
			{Name: "panda-exposed", Correct: correct, Metrics: m},
			{Name: "panda-exposed", Trace: true, Correct: true},
		}}
	}
	bound := endToEnd[0].Bound // of apparent_write_mbps
	within, beyond := 100*(1-bound/2), 100*(1-2*bound)
	cases := []struct {
		name string
		cur  resultFile
		code int
		want string
	}{
		{"same", row(100, 0.02, true), 0, "0 regressions, 0 unresolved"},
		{"within bound", row(within, 0.02, true), 0, "0 regressions, 0 unresolved"},
		{"faster", row(150, 0.02, true), 0, "0 regressions, 0 unresolved"},
		{"slower", row(beyond, 0.02, true), 1, "1 regressions, 0 unresolved"},
		{"noisy", row(beyond, 2*bound, true), 0, "0 regressions, 1 unresolved"},
		{"broken", row(100, 0.02, false), 1, "failed its correctness checks"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareResults(&out, row(100, 0.02, true), c.cur); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d; output lacks %q:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	// A lower-is-better metric regresses upwards.
	cur := row(100, 0.02, true)
	cur.Results[0].Metrics["setup_s"] = measured{Value: 140, Unit: "s"}
	if code := compareResults(&bytes.Buffer{}, row(100, 0.02, true), cur); code != 1 {
		t.Errorf("setup_s +40%%: exit %d, want 1", code)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver
// reads, in step with the tables the command reports from, and inside
// the driver's limits on names, units and lengths.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.Name || doc.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, doc.Workloads[i].Name)
		}
		if !nameRE.MatchString(wl.Name) || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q: name or why (%d chars) outside the driver's limits", wl.Name, len(wl.Why))
		}
	}
	check := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, spec := range want {
			if got[i] != spec {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], spec)
			}
			if !nameRE.MatchString(spec.Name) || !unitRE.MatchString(spec.Unit) || seen[spec.Name] {
				t.Errorf("%s: %+v outside the driver's limits", kind, spec)
			}
			seen[spec.Name] = true
			if (spec.Better != higher && spec.Better != lower) || (spec.Bound > 0) != bounded || spec.Bound > 0.25 {
				t.Errorf("%s: %+v has a bad direction or bound", kind, spec)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 8 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Error("BENCHMARK.json outside the driver's size limits")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
}
