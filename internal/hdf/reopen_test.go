package hdf

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"genxio/internal/rt"
)

// opFS counts the reads, writes, truncations and renames made through it, and
// fails the next WriteAt when failWrite is set — writing nothing, or with
// shortWrite the head of its bytes.
type opFS struct {
	rt.FS
	reads, writes, truncates, renames int
	failWrite                         bool
	shortWrite                        bool
}

func (o *opFS) Create(name string) (rt.File, error) {
	f, err := o.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &opFile{f, o}, nil
}

func (o *opFS) Open(name string) (rt.File, error) {
	f, err := o.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &opFile{f, o}, nil
}

func (o *opFS) Rename(oldname, newname string) error {
	o.renames++
	return o.FS.Rename(oldname, newname)
}

type opFile struct {
	rt.File
	fs *opFS
}

func (f *opFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.failWrite {
		f.fs.failWrite = false
		if f.fs.shortWrite && len(p) > 1 {
			n, _ := f.File.WriteAt(p[:len(p)/2], off)
			return n, errors.New("injected short write")
		}
		return 0, errors.New("injected write failure")
	}
	f.fs.writes++
	return f.File.WriteAt(p, off)
}

func (f *opFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads++
	return f.File.ReadAt(p, off)
}

func (f *opFile) Truncate(size int64) error {
	f.fs.truncates++
	return f.File.Truncate(size)
}

// reopenSet is dataset i of the file both writers build: sizes either side
// of the deflate floor, and short ones that end well inside the directory a
// publish wrote before them.
func reopenSet(i int) (string, []int64, []byte) {
	n := []int{200, 3, 1, 90, 0, 700, 2, 64, 5, 1}[i%10]
	data := make([]float64, n)
	for j := range data {
		data[j] = float64(i*1000 + j/8)
	}
	return "/fluid/pane" + string(rune('A'+i)) + "/pressure", []int64{int64(n)}, F64Bytes(data)
}

// buildReopened writes nsets datasets to name, calling between after each,
// and publishes; it returns the report and the file's bytes.
func buildReopened(t *testing.T, fsys rt.FS, name string, nsets int, between func(w *Writer, i int)) (Published, []byte) {
	t.Helper()
	w, err := Create(fsys, name, rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nsets; i++ {
		w.Compress = i%3 == 1
		set, dims, data := reopenSet(i)
		if err := w.CreateDataset(set, F64, dims, []Attr{I32Attr("i", int32(i))}, data); err != nil {
			t.Fatal(err)
		}
		between(w, i)
	}
	p, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(fsys, name)
	if err != nil {
		t.Fatal(err)
	}
	return p, b
}

// publishReopen publishes w, checks the whole file is under its final name
// and nothing under its staged one, and reopens it.
func publishReopen(t *testing.T, fsys rt.FS, w *Writer) {
	t.Helper()
	p, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if size, err := fsys.Stat(w.final); err != nil || size != p.Size {
		t.Fatalf("published %s: %d bytes on disk (%v), report says %d", w.final, size, err, p.Size)
	}
	if _, err := fsys.Stat(w.final + TmpSuffix); !errors.Is(err, rt.ErrNotExist) {
		t.Fatalf("a staged %s is left beside the published file (%v)", w.final, err)
	}
	if err := w.Reopen(); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(w.final); !errors.Is(err, rt.ErrNotExist) {
		t.Fatalf("a reopened %s is still under its final name (%v)", w.final, err)
	}
}

// TestReopenIsByteIdentical: a file published and reopened every few
// datasets — each publish overwritten by the next dataset, and one reopened
// twice with no dataset between — publishes the bytes and the report of the
// same file never published in between. A reopen just before the last
// Publish leaves it only the close and the rename; a writer whose Publish
// failed does not reopen.
func TestReopenIsByteIdentical(t *testing.T) {
	const nsets = 10
	never, want := buildReopened(t, rt.NewMemFS(), "r.rhdf", nsets, func(*Writer, int) {})

	fsys := rt.NewMemFS()
	reopened, got := buildReopened(t, fsys, "r.rhdf", nsets, func(w *Writer, i int) {
		if i%3 == 2 {
			publishReopen(t, fsys, w)
		}
		if i == 5 {
			publishReopen(t, fsys, w)
		}
	})
	if !bytes.Equal(got, want) || !reflect.DeepEqual(reopened, never) {
		t.Fatalf("reopened file: %d bytes, report %+v; never published: %d bytes, report %+v", len(got), reopened, len(want), never)
	}

	ops := &opFS{FS: rt.NewMemFS()}
	var writes, truncates, renames int
	last, got := buildReopened(t, ops, "r.rhdf", nsets, func(w *Writer, i int) {
		if i == nsets-1 {
			publishReopen(t, ops, w)
			writes, truncates, renames = ops.writes, ops.truncates, ops.renames
		}
	})
	if !bytes.Equal(got, want) || !reflect.DeepEqual(last, never) {
		t.Fatal("reopening before Publish changed what it wrote")
	}
	if ops.writes != writes || ops.truncates != truncates || ops.renames != renames+1 {
		t.Fatalf("Publish of a file reopened with nothing new made %d writes, %d truncations and %d renames, want only its rename",
			ops.writes-writes, ops.truncates-truncates, ops.renames-renames)
	}

	ops = &opFS{FS: rt.NewMemFS()}
	w, err := Create(ops, "f.rhdf", rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	ops.failWrite = true
	if _, err := w.Publish(); err == nil {
		t.Fatal("the failed directory write was not reported")
	}
	if err := w.Reopen(); err == nil {
		t.Fatal("a writer whose Publish failed reopened")
	}
	if err := w.Reopen(); err == nil || ops.renames != 0 {
		t.Fatalf("a writer never published reopened (%v) or renamed something (%d)", err, ops.renames)
	}
}

// TestShortWriteAfterReopenRewritesDirectory: a dataset whose write fails
// after putting its head over the directory a publish wrote leaves that
// directory no longer current, so Publish writes it again; the published
// file opens and holds what Publish reported.
func TestShortWriteAfterReopenRewritesDirectory(t *testing.T) {
	ops := &opFS{FS: rt.NewMemFS()}
	clock := rt.NewWallClock()
	w, err := Create(ops, "s.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		set, dims, data := reopenSet(i)
		if err := w.CreateDataset(set, F64, dims, nil, data); err != nil {
			t.Fatal(err)
		}
	}
	publishReopen(t, ops, w)
	ops.failWrite, ops.shortWrite = true, true
	set, dims, data := reopenSet(5)
	if err := w.CreateDataset(set, F64, dims, nil, data); err == nil {
		t.Fatal("the short write was not reported")
	}
	if w.current {
		t.Fatal("a short write over the published directory left it current")
	}
	p, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(ops, "s.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatalf("the published file does not open: %v", err)
	}
	defer r.Close()
	raw, err := ReadRawDir(ops, "s.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(ops, "s.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDatasets() != p.Count || int64(len(b)) != p.Size || raw.Count != p.Count || raw.Size != p.Size || !bytes.Equal(raw.Bytes, p.Dir) {
		t.Fatalf("on disk %d datasets, %d bytes; Publish reported %d datasets, %d bytes", r.NumDatasets(), len(b), p.Count, p.Size)
	}
}

// TestReopenOfAppendIsOpenAppend: an append's header patch is its commit
// point, so a published append reopens in place, past its directory, and
// writes what OpenAppend would: an append dropped after it leaves the
// previous directory, and every dataset it describes, as the file's, and
// one published leaves OpenAppend's bytes — with no byte of the file read.
func TestReopenOfAppendIsOpenAppend(t *testing.T) {
	clock := rt.NewWallClock()
	ops := &opFS{FS: rt.NewMemFS()}
	build := func(fsys rt.FS, reopen bool) *Writer {
		w, err := Create(fsys, "a.rhdf", clock, NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset("first", I32, []int64{2}, nil, I32Bytes([]int32{1, 2})); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = OpenAppend(fsys, "a.rhdf", clock, NullProfile()); err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset("second", I32, []int64{1}, nil, I32Bytes([]int32{3})); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if reopen {
			reads := ops.reads
			if err = w.Reopen(); ops.reads != reads {
				t.Fatalf("Reopen read the file %d times", ops.reads-reads)
			}
		} else {
			w, err = OpenAppend(fsys, "a.rhdf", clock, NullProfile())
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset("third", I32, []int64{1}, nil, I32Bytes([]int32{4})); err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref := rt.NewMemFS()
	if err := build(ref, false).Close(); err != nil {
		t.Fatal(err)
	}
	want, err := ReadFile(ref, "a.rhdf")
	if err != nil {
		t.Fatal(err)
	}

	fsys := ops
	w := build(fsys, true)
	// The append is interrupted here: no Publish.
	r, err := Open(fsys, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatalf("the previous directory is gone: %v", err)
	}
	if _, ok := r.Lookup("third"); ok || r.NumDatasets() != 2 {
		t.Fatalf("the interrupted append shows %d datasets", r.NumDatasets())
	}
	r.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(fsys, "a.rhdf"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the reopened append left %d bytes (%v), OpenAppend %d, and they differ", len(got), err, len(want))
	}
	if err := w.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := w.Reopen(); err == nil {
		t.Fatal("an open writer reopened")
	}
}
