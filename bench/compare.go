package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare applies the benchmark's own bounds to two result files, one
// row per workload and end-to-end metric: a metric that got worse by
// more than its bound is a regression; one whose spread on either side
// exceeds its bound is unresolved, not unchanged.

func loadResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict classifies one metric of one workload. worse is the change in
// the bad direction as a share of the base value.
func verdict(spec metricSpec, base, cur measured) (worse float64, status string) {
	if base.Value != 0 {
		worse = (cur.Value - base.Value) / base.Value
	}
	if spec.Better == higher {
		worse = -worse
	}
	switch {
	case base.Spread > spec.Bound || cur.Spread > spec.Bound:
		return worse, "unresolved"
	case worse > spec.Bound:
		return worse, "REGRESSION"
	default:
		return worse, "ok"
	}
}

// compareFiles prints the comparison and returns the exit code: 1 on any
// regression or a failed run, 2 on unusable input.
func compareFiles(w io.Writer, basePath, curPath string) int {
	base, err := loadResults(basePath)
	if err == nil {
		var cur resultFile
		if cur, err = loadResults(curPath); err == nil {
			return compareResults(w, base, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(w io.Writer, base, cur resultFile) int {
	baseRows := make(map[string]workloadResult)
	for _, r := range base.Results {
		if !r.Trace {
			baseRows[r.Name] = r
		}
	}
	regressions, unresolved, rows := 0, 0, 0
	fmt.Fprintf(w, "%-20s %-28s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "")
	for _, c := range cur.Results {
		b, ok := baseRows[c.Name]
		if c.Trace || !ok {
			continue
		}
		rows++
		if !c.Correct {
			regressions++
			fmt.Fprintf(w, "%-20s failed its correctness checks (%d of %d)  REGRESSION\n", c.Name, c.Failed, c.Attempted)
		}
		for _, spec := range endToEnd {
			worse, status := verdict(spec, b.Metrics[spec.Name], c.Metrics[spec.Name])
			switch status {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-28s %12.6g %12.6g %+7.1f%% %7.0f%%  %s\n", c.Name, spec.Name,
				b.Metrics[spec.Name].Value, c.Metrics[spec.Name].Value, 100*worse, 100*spec.Bound, status)
		}
	}
	fmt.Fprintf(w, "%d workloads compared: %d regressions, %d unresolved\n", rows, regressions, unresolved)
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no untraced workload")
		return 2
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
