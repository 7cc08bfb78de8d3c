// Command genxbench regenerates the paper's evaluation (Section 7) on the
// simulated platforms: Table 1, Figure 3(a), Figure 3(b), and the design
// ablations. Each experiment prints paper-style rows with the paper's
// reported values alongside.
//
// Usage:
//
//	genxbench -exp table1 [-scale 1.0] [-runs 5]
//	genxbench -exp fig3a  [-maxprocs 480] [-runs 3]
//	genxbench -exp fig3b  [-maxnodes 32] [-runs 3]
//	genxbench -exp ablations [-scale 0.25]
//	genxbench -exp all
//
// The repository's benchmark of the Rocpanda module and its layers is
// the separate bench/ module (sh bench/run.sh); genxbench runs only the
// paper's figures and the ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"genxio/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1 | fig3a | fig3b | ablations | all")
	scale := flag.Float64("scale", 1.0, "lab-scale workload scale in (0,1]")
	runs := flag.Int("runs", 0, "runs per configuration (0 = experiment default)")
	maxProcs := flag.Int("maxprocs", 480, "largest compute-processor count for fig3a")
	maxNodes := flag.Int("maxnodes", 32, "largest node count for fig3b")
	flag.Parse()

	t0 := time.Now()
	run := func(name string, f func() (interface{ Format() string }, error)) {
		fmt.Printf("=== %s ===\n", name)
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
	}

	known := map[string]bool{"all": true, "table1": true, "fig3a": true, "fig3b": true, "ablations": true}
	if !known[*exp] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	all := *exp == "all"
	if all || *exp == "table1" {
		run("table1", func() (interface{ Format() string }, error) {
			return experiments.RunTable1(experiments.Table1Opts{Scale: *scale, Runs: *runs})
		})
	}
	if all || *exp == "fig3a" {
		run("fig3a", func() (interface{ Format() string }, error) {
			var procs []int
			for _, p := range []int{1, 2, 4, 8, 15, 30, 60, 120, 240, 480} {
				if p <= *maxProcs {
					procs = append(procs, p)
				}
			}
			return experiments.RunFig3a(experiments.Fig3aOpts{Procs: procs, Runs: *runs})
		})
	}
	if all || *exp == "fig3b" {
		run("fig3b", func() (interface{ Format() string }, error) {
			var nodes []int
			for _, n := range []int{1, 2, 4, 8, 16, 32} {
				if n <= *maxNodes {
					nodes = append(nodes, n)
				}
			}
			return experiments.RunFig3b(experiments.Fig3bOpts{Nodes: nodes, Runs: *runs})
		})
	}
	if all || *exp == "ablations" {
		run("ablations", func() (interface{ Format() string }, error) {
			s := *scale
			if s >= 1 {
				s = 0.25 // ablations do not need the full-size mesh
			}
			return experiments.RunAblations(experiments.AblationOpts{Scale: s})
		})
	}
	fmt.Printf("total wall time: %v\n", time.Since(t0))
}
