// Iotradeoff: a miniature of the paper's Table 1 on the simulated Turing
// platform — same library code as the real runs, but in virtual time on a
// modelled cluster (dual-CPU nodes, Myrinet, one NFS server). It sweeps
// the three I/O modules at two processor counts and prints the
// application-visible I/O cost next to the actual data volume, showing
// why overlap (T-Rochdf, Rocpanda) wins and what the file-count trade-off
// is.
//
// Run with: go run ./examples/iotradeoff
package main

import (
	"fmt"
	"log"

	"genxio"
)

func main() {
	fmt.Println("simulated Turing: visible I/O cost by module (virtual seconds)")
	fmt.Printf("%8s %-10s %12s %12s %12s %8s\n",
		"procs", "module", "compute s", "visible s", "payload MB", "files")
	for _, n := range []int{16, 32} {
		for _, io := range []genxio.IOKind{genxio.IORochdf, genxio.IOTRochdf, genxio.IORocpanda} {
			plat := genxio.Turing()
			world := genxio.NewTuring(1).WithRanksPerNode(plat.CPUsPerNode)

			spec := genxio.LabScale(0.1)
			cfg := genxio.Config{
				Workload:       spec,
				IO:             io,
				Profile:        genxio.HDF4Profile(),
				BufferBW:       plat.MemcpyBW,
				ServerBufferBW: 300e6,
				StrideRealWork: 50, // charge costs; sample real arithmetic
				Rocpanda: genxio.RocpandaConfig{
					NumServers:      n / 8, // the paper's 8:1 clients per server
					ActiveBuffering: true,
				},
			}
			ranks := n
			if io == genxio.IORocpanda {
				ranks = n + cfg.Rocpanda.NumServers
			}
			var rep *genxio.Report
			err := world.Run(ranks, func(ctx genxio.Ctx) error {
				r, err := genxio.Run(ctx, cfg)
				if r != nil {
					rep = r
				}
				return err
			})
			if err != nil {
				log.Fatal(err)
			}
			names, _ := world.FSModel().Backing().List("out/snap000200")
			fmt.Printf("%8d %-10s %12.2f %12.3f %12.1f %8d\n",
				n, io, rep.ComputeTime, rep.VisibleWrite,
				float64(rep.BytesOut)/1e6, len(names))
		}
	}
	fmt.Println("\nT-Rochdf and Rocpanda hide nearly all I/O behind computation;")
	fmt.Println("Rocpanda additionally writes one file per server instead of one per process.")
}
