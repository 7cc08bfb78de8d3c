package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// TestReadDeliversEmptyDatasetAtRunEnd: a zero-length dataset — an element
// attribute of a zero-element block — right after the pane's last payload
// ends its coalesced read run without extending it. The file is intact, so
// a restart through either driver delivers the pane with both datasets.
func TestReadDeliversEmptyDatasetAtRunEnd(t *testing.T) {
	fsys := rt.NewMemFS()
	name := "out/snap000010_s000.rhdf"
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	pressure := []byte{1, 2, 3, 4}
	if err := w.CreateDataset("/fluid/pane000001/pressure", hdf.U8, []int64{4}, nil, pressure); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("/fluid/pane000001/empty", hdf.U8, []int64{0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Commit(fsys, "out/snap000010", 10, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []roccom.IOSet
			var mode ReadMode
			err := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
				mode = NewReader(ctx, ReaderConfig{Workers: workers}).Read(ReadRequest{
					Base: "out/snap000010", Window: "fluid", Attr: "all", Wanted: map[int]bool{1: true},
					Deliver: func(_ int, sets []roccom.IOSet) { got = append(got, sets...) },
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if mode != ReadIndexed || len(got) != 2 {
				t.Fatalf("read mode %d delivered %d datasets, want the indexed read of 2", mode, len(got))
			}
			if got[0].Name != "/fluid/pane000001/pressure" || !bytes.Equal(got[0].Data, pressure) ||
				got[1].Name != "/fluid/pane000001/empty" || len(got[1].Data) != 0 {
				t.Fatalf("delivered %s = %v and %s = %v", got[0].Name, got[0].Data, got[1].Name, got[1].Data)
			}
		})
	}
}
