package rocman

import (
	"fmt"

	"genxio/internal/mpi"
	"genxio/internal/roccom"
)

// Migration tag in the application tag space.
const tagMigrate = 2100

// MigratePane moves one pane of a window from rank src to rank dst of
// comm, carrying the mesh block and all attribute data. Both ranks must
// call it (other ranks need not); the pane is deleted on src and appears
// on dst with identical contents.
//
// This is the paper's dynamic load-balancing claim made concrete: data
// blocks may migrate among processors between output phases, and because
// Rocpanda and Rochdf ship whatever panes are registered at write time,
// nothing about how I/O is performed changes — with Rocpanda the server's
// workload even rebalances automatically.
func MigratePane(comm mpi.Comm, w *roccom.Window, paneID, src, dst int) error {
	if src == dst {
		return nil
	}
	switch comm.Rank() {
	case src:
		p, ok := w.Pane(paneID)
		if !ok {
			return fmt.Errorf("rocman: migrate: rank %d has no pane %d", src, paneID)
		}
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			return err
		}
		// Send gathers the pane's views into the message before the pane goes.
		comm.Send(dst, tagMigrate, roccom.IOSetSegments(sets)...)
		return w.DeletePane(paneID)
	case dst:
		data, _ := comm.Recv(src, tagMigrate)
		sets, err := roccom.DecodeIOSets(data)
		if err != nil {
			return err
		}
		if _, err := roccom.RestorePane(w, paneID, sets); err != nil {
			return err
		}
		return nil
	}
	return nil
}
