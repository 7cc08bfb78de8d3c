package hdf

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"genxio/internal/rt"
)

// opFS counts the writes and truncations made through it, and fails the
// next WriteAt when failWrite is set — writing nothing, or with shortWrite
// the head of its bytes.
type opFS struct {
	rt.FS
	writes, truncates int
	failWrite         bool
	shortWrite        bool
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

func (f *opFile) Truncate(size int64) error {
	f.fs.truncates++
	return f.File.Truncate(size)
}

// landSet is dataset i of the file both writers build: sizes either side of
// the deflate floor, and short ones that end well inside the directory a
// landing wrote before them.
func landSet(i int) (string, []int64, []byte) {
	n := []int{200, 3, 1, 90, 0, 700, 2, 64, 5, 1}[i%10]
	data := make([]float64, n)
	for j := range data {
		data[j] = float64(i*1000 + j/8)
	}
	return "/fluid/pane" + string(rune('A'+i)) + "/pressure", []int64{int64(n)}, F64Bytes(data)
}

// buildLanded writes nsets datasets to name, calling land after each, and
// publishes; it returns the report and the file's bytes.
func buildLanded(t *testing.T, fsys rt.FS, name string, nsets int, land func(w *Writer, i int)) (Published, []byte) {
	t.Helper()
	w, err := Create(fsys, name, rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nsets; i++ {
		w.Compress = i%3 == 1
		set, dims, data := landSet(i)
		if err := w.CreateDataset(set, F64, dims, []Attr{I32Attr("i", int32(i))}, data); err != nil {
			t.Fatal(err)
		}
		land(w, i)
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

// TestLandIsByteIdentical: a file landed every few datasets — its last
// landing followed by more datasets, each landing overwritten by the next
// dataset and a landing repeated without one — publishes the bytes and the
// report of the same file never landed. A failed landing leaves the file
// unlanded and Publish writes it whole; a landing just before Publish
// leaves it only the close and the rename.
func TestLandIsByteIdentical(t *testing.T) {
	const nsets = 10
	never, want := buildLanded(t, rt.NewMemFS(), "l.rhdf", nsets, func(*Writer, int) {})

	landed, got := buildLanded(t, rt.NewMemFS(), "l.rhdf", nsets, func(w *Writer, i int) {
		if i%3 != 2 {
			return
		}
		if wrote, err := w.Land(); err != nil || !wrote || !w.Landed() {
			t.Fatalf("Land after dataset %d: wrote %v, %v, landed %v", i, wrote, err, w.Landed())
		}
		if wrote, err := w.Land(); err != nil || wrote {
			t.Fatalf("a repeated Land: wrote %v, %v", wrote, err)
		}
	})
	if !bytes.Equal(got, want) || !reflect.DeepEqual(landed, never) {
		t.Fatalf("landed file: %d bytes, report %+v; never landed: %d bytes, report %+v", len(got), landed, len(want), never)
	}

	ops := &opFS{FS: rt.NewMemFS()}
	failed, got := buildLanded(t, ops, "l.rhdf", nsets, func(w *Writer, i int) {
		if i != nsets-1 {
			return
		}
		ops.failWrite = true
		if _, err := w.Land(); err == nil || w.Landed() {
			t.Fatalf("a failed Land returned %v, landed %v", err, w.Landed())
		}
	})
	if !bytes.Equal(got, want) || !reflect.DeepEqual(failed, never) {
		t.Fatal("a failed landing changed what Publish wrote")
	}

	ops = &opFS{FS: rt.NewMemFS()}
	var writes, truncates int
	last, got := buildLanded(t, ops, "l.rhdf", nsets, func(w *Writer, i int) {
		if i == nsets-1 {
			if _, err := w.Land(); err != nil {
				t.Fatal(err)
			}
			writes, truncates = ops.writes, ops.truncates
		}
	})
	if !bytes.Equal(got, want) || !reflect.DeepEqual(last, never) {
		t.Fatal("landing before Publish changed what it wrote")
	}
	if ops.writes != writes || ops.truncates != truncates {
		t.Fatalf("Publish of a landed file made %d writes and %d truncations, want none", ops.writes-writes, ops.truncates-truncates)
	}
}

// TestShortWriteAfterLandingRewritesDirectory: a dataset whose write
// fails after putting its head over a landed directory leaves the file
// unlanded, so Publish writes the directory again; the published file
// opens and holds what Publish reported.
func TestShortWriteAfterLandingRewritesDirectory(t *testing.T) {
	ops := &opFS{FS: rt.NewMemFS()}
	clock := rt.NewWallClock()
	w, err := Create(ops, "s.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		set, dims, data := landSet(i)
		if err := w.CreateDataset(set, F64, dims, nil, data); err != nil {
			t.Fatal(err)
		}
	}
	if wrote, err := w.Land(); err != nil || !wrote {
		t.Fatalf("Land: wrote %v, %v", wrote, err)
	}
	ops.failWrite, ops.shortWrite = true, true
	set, dims, data := landSet(5)
	if err := w.CreateDataset(set, F64, dims, nil, data); err == nil {
		t.Fatal("the short write was not reported")
	}
	if w.Landed() {
		t.Fatal("a short write over the landed directory left the file landed")
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

// TestLandOnAppendWritesNothing: an append's header patch is its commit
// point, so Land on an append writer writes nothing, and an append dropped
// after it leaves the previous directory, and every dataset it describes,
// as the file's.
func TestLandOnAppendWritesNothing(t *testing.T) {
	ops := &opFS{FS: rt.NewMemFS()}
	clock := rt.NewWallClock()
	w, err := Create(ops, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("first", I32, []int64{2}, nil, I32Bytes([]int32{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := ReadFile(ops, "a.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppend(ops, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CreateDataset("second", I32, []int64{1}, nil, I32Bytes([]int32{3})); err != nil {
		t.Fatal(err)
	}
	writes, truncates := ops.writes, ops.truncates
	if wrote, err := a.Land(); err != nil || wrote || a.Landed() {
		t.Fatalf("Land on an append writer: wrote %v, %v, landed %v", wrote, err, a.Landed())
	}
	if ops.writes != writes || ops.truncates != truncates {
		t.Fatalf("Land on an append writer made %d writes and %d truncations", ops.writes-writes, ops.truncates-truncates)
	}
	// The append is interrupted here: no Publish.
	after, err := ReadFile(ops, "a.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:len(before)], before) {
		t.Fatal("the interrupted append changed the bytes of the published file")
	}
	r, err := Open(ops, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatalf("the previous directory is gone: %v", err)
	}
	defer r.Close()
	if _, ok := r.Lookup("second"); ok || r.NumDatasets() != 1 {
		t.Fatalf("the interrupted append shows %d datasets", r.NumDatasets())
	}
}
