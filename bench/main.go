// Command bench is the repository's benchmark: a two-clock,
// layer-attributed snapshot/restart benchmark of the GENx I/O stack. It
// drives the I/O services directly — roccom windows built from
// mesh.GenCylinder, then write_attribute / sync / read_attribute on
// rocpanda.Client or rochdf.Rochdf — with no physics and no rocman, on
// the real backend (goroutine ranks, MemFS, wall clock) and on the
// simulated Turing platform (virtual time). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed    uint64           `json:"seed"`
	Seconds float64          `json:"seconds"`
	Results []workloadResult `json:"results"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs and of the simulated platform's noise")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from layer replays and a traced run; default both")
		traceDir = flag.String("tracedir", ".bench_build/trace", "where a traced run writes its Chrome trace and JSONL")
		out      = flag.String("out", "", "also write the results to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	run := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fatalf("unknown workload %q", *name)
		}
		run = []workload{*wl}
	}
	var passes []bool
	switch *trace {
	case 0:
		passes = []bool{false}
	case 1:
		passes = []bool{true}
	case -1:
		passes = []bool{false, true}
	default:
		fatalf("-trace must be 0 or 1")
	}

	file := resultFile{Seed: *seed, Seconds: *seconds}
	ok := true
	for _, wl := range run {
		for _, tr := range passes {
			res := runWorkload(wl, options{
				Seed: *seed, Seconds: *seconds, Trace: tr, TraceDir: *traceDir, MinReps: minReps(tr), Warmups: 1, ReplayBatches: 5,
			})
			printResult(os.Stdout, &wl, &res)
			file.Results = append(file.Results, res)
			ok = ok && res.Correct
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, file); err != nil {
			fatalf("%v", err)
		}
	}
	if len(file.Results) == 1 {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(contractLine(&file.Results[0]))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: failed correctness checks")
		os.Exit(1)
	}
}

// minReps is the floor under the repetition count: five measured
// repetitions of an untraced run, two plain/traced pairs of a traced one.
func minReps(trace bool) int {
	if trace {
		return 2
	}
	return 5
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// contractLine renders a result as {"correct","attempted","failed","metrics"}.
func contractLine(res *workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}

// printResult prints one workload's table: every metric by name with its
// unit, the spread of end-to-end metrics (unresolved when it exceeds the
// metric's bound), the failure share, and a traced run's budget.
func printResult(w io.Writer, wl *workload, res *workloadResult) {
	kind, specs := "end-to-end, tracing off", endToEnd
	if res.Trace {
		kind, specs = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "\n%s (%s; %d repetitions)\n  %s\n", res.Name, kind, res.Reps, wl.Why)
	for _, spec := range specs {
		m, ok := res.Metrics[spec.Name]
		if !ok {
			continue
		}
		note := ""
		if spec.Bound > 0 {
			note = fmt.Sprintf("  spread %.1f%% of bound %.0f%%", 100*m.Spread, 100*spec.Bound)
			if m.Spread > spec.Bound {
				note += "  UNRESOLVED"
			}
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-6s%s\n", spec.Name, m.Value, spec.Unit, note)
	}
	fmt.Fprintf(w, "  %-44s %14.6g %-6s (%d failed of %d client calls and checks)\n",
		"failed_op_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if res.Trace && (wl.Name == "panda-exposed" || wl.Name == "panda-smallblocks") {
		printBudget(w, res.budget)
	}
	sort.Strings(res.Errors)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
