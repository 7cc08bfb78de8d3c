package catalog

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/rt"
)

// writeRHDF builds a small RHDF file and returns its decoded directory, the
// same inputs snapshot.Commit feeds AddFile.
func writeRHDF(t *testing.T, fsys rt.FS, name string, sets map[string][]byte) []*hdf.Dataset {
	t.Helper()
	clock := rt.NewWallClock()
	w, err := hdf.Create(fsys, name, clock, hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for dsName, data := range sets {
		attrs := []hdf.Attr{hdf.StrAttr("location", "node")}
		if err := w.CreateDataset(dsName, hdf.U8, []int64{int64(len(data))}, attrs, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, dir, err := hdf.ScanDir(fsys, name)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func buildCatalog(t *testing.T, fsys rt.FS) *Catalog {
	t.Helper()
	c := &Catalog{}
	c.AddFile("snap_s000.rhdf", writeRHDF(t, fsys, "snap_s000.rhdf", map[string][]byte{
		"/fluid/pane000001/pressure": []byte("aaaa"),
		"/fluid/pane000001/_coords":  []byte("bbbbbbbb"),
		"/fluid/pane000002/pressure": []byte("cccc"),
		"_meta":                      []byte("x"),
	}))
	c.AddFile("snap_s001.rhdf", writeRHDF(t, fsys, "snap_s001.rhdf", map[string][]byte{
		"/fluid/pane000003/pressure": []byte("dddd"),
		// pane 2 re-shipped after failover: dedup must prefer file 0.
		"/fluid/pane000002/pressure": []byte("cccc"),
	}))
	return c
}

// loadFiles loads every directory of c from its file on fsys: the bytes
// DirLen(f) before the file's end, as a restart reads them.
func loadFiles(t *testing.T, fsys rt.FS, c *Catalog) {
	t.Helper()
	for f, name := range c.Files {
		img, err := hdf.ReadFile(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(img))
		d := hdf.RawDir{Name: name, Size: size, Count: int(binary.LittleEndian.Uint32(img[16:])), Bytes: img[size-c.DirLen(f):]}
		if err := c.LoadDir(f, d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEncodeDecodeRoundTrip: a decoded catalog, its directories loaded
// from the files, holds the entries AddFile made, and nothing before they
// load.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 || got.HasDir(0) || got.DirLen(0) != c.DirLen(0) || got.DirLen(1) != c.DirLen(1) {
		t.Fatalf("decoded: %d entries, directories %d and %d bytes, want none loaded of %d and %d",
			len(got.Entries), got.DirLen(0), got.DirLen(1), c.DirLen(0), c.DirLen(1))
	}
	loadFiles(t, fsys, got)
	if !reflect.DeepEqual(c.Files, got.Files) {
		t.Fatalf("files: got %v want %v", got.Files, c.Files)
	}
	if len(got.Entries) != len(c.Entries) {
		t.Fatalf("entries: got %d want %d", len(got.Entries), len(c.Entries))
	}
	for i := range c.Entries {
		if !reflect.DeepEqual(c.Entries[i], got.Entries[i]) {
			t.Errorf("entry %d: got %+v want %+v", i, got.Entries[i], c.Entries[i])
		}
	}
}

func TestAddFileSkipsNonPaneDatasets(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	for i := range c.Entries {
		if c.Dataset(&c.Entries[i]).Name == "_meta" {
			t.Fatal("bookkeeping dataset _meta indexed")
		}
	}
	if len(c.Entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(c.Entries))
	}
}

func TestPanes(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	if got := c.Panes("fluid"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Panes(fluid) = %v", got)
	}
	if got := c.Panes("solid"); len(got) != 0 {
		t.Fatalf("Panes(solid) = %v", got)
	}
}

func TestPlanReadsDedupsAcrossFiles(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	plans := c.PlanReads("fluid", map[int]bool{1: true, 2: true, 3: true})
	if len(plans) != 2 {
		t.Fatalf("got %d plans, want 2", len(plans))
	}
	if plans[0].File != "snap_s000.rhdf" || plans[1].File != "snap_s001.rhdf" {
		t.Fatalf("plan files: %s, %s", plans[0].File, plans[1].File)
	}
	// Pane 2 appears in both files; only file 0's copy is planned.
	for _, e := range plans[1].Entries {
		if e.Pane == 2 {
			t.Fatal("pane 2 planned from file 1 despite copy in file 0")
		}
	}
	if len(plans[0].Entries) != 3 || len(plans[1].Entries) != 1 {
		t.Fatalf("entry counts: %d, %d", len(plans[0].Entries), len(plans[1].Entries))
	}
	for _, p := range plans {
		for i := 1; i < len(p.Entries); i++ {
			if p.Entries[i].offset < p.Entries[i-1].offset {
				t.Fatalf("%s entries not offset-sorted", p.File)
			}
		}
	}
	// Only the file holding pane 3 is planned when that is all we want.
	plans = c.PlanReads("fluid", map[int]bool{3: true})
	if len(plans) != 1 || plans[0].File != "snap_s001.rhdf" {
		t.Fatalf("single-pane plan: %+v", plans)
	}
}

func TestReplicaRank(t *testing.T) {
	type parsed struct {
		base          string
		home, replica int
		ok            bool
	}
	no := parsed{}
	cases := map[string]parsed{
		"run/snap000010_s000.rhdf":        {"run/snap000010", 0, 0, true},
		"run/snap000010_s000r1.rhdf":      {"run/snap000010", 0, 1, true},
		"run/snap000010_s001r2.rhdf":      {"run/snap000010", 1, 2, true},
		"run/snap000010_s012r10.rhdf":     {"run/snap000010", 12, 10, true},
		"run/a_b_s1000.rhdf":              {"run/a_b", 1000, 0, true}, // wider than the padding
		"run/snap000010_p00003.rhdf":      no,                         // per-rank files have no replicas
		"run/snap000010_s000r.rhdf":       no,                         // malformed: empty replica digits
		"run/snap000010_sr1.rhdf":         no,                         // malformed: empty server digits
		"run/snap000010_s.rhdf":           no,                         // malformed: no digits at all
		"run/snap000010_s0x0r1.rhdf":      no,                         // malformed: non-digit server part
		"run/snap000010_s000r1r2.rhdf":    no,                         // malformed: two replica parts
		"run/snap000010_s000r-1.rhdf":     no,                         // malformed: signed replica
		"run/snap000010_s+01.rhdf":        no,                         // malformed: signed server part
		"run/snap000010_s9999999999.rhdf": no,                         // malformed: overflowing index
		"run/snap000010_s000.rhdf.tmp":    no,                         // staged, not committed
		"run/snap000010_s000":             no,
		"s000.rhdf":                       no, // no base
		"run/snap000010.manifest":         no,
		"plain.txt":                       no,
		"":                                no,
	}
	for name, want := range cases {
		base, home, replica, ok := ParseServerFile(name)
		if got := (parsed{base, home, replica, ok}); got != want {
			t.Errorf("ParseServerFile(%q) = %+v, want %+v", name, got, want)
		}
		if got := ReplicaRank(name); got != want.replica {
			t.Errorf("ReplicaRank(%q) = %d, want %d", name, got, want.replica)
		}
		if want.ok {
			if got := ServerFile(want.base, want.home, want.replica); got != name {
				t.Errorf("ServerFile(%q, %d, %d) = %q, want %q", want.base, want.home, want.replica, got, name)
			}
		}
	}
}

// TestRankFileGrammar: RankFile and ParseRankFile are inverses, and
// ParseDataFile gives either kind of data file its home — what a restart
// deals files by.
func TestRankFileGrammar(t *testing.T) {
	type parsed struct {
		base string
		home int
		ok   bool
	}
	no := parsed{}
	cases := map[string]struct{ rank, data parsed }{
		"run/snap000010_p00003.rhdf":      {parsed{"run/snap000010", 3, true}, parsed{"run/snap000010", 3, true}},
		"run/a_b_p123456.rhdf":            {parsed{"run/a_b", 123456, true}, parsed{"run/a_b", 123456, true}}, // wider than the padding
		"run/snap000010_s002r1.rhdf":      {no, parsed{"run/snap000010", 2, true}},
		"run/snap000010_p.rhdf":           {no, no},
		"run/snap000010_p12a.rhdf":        {no, no},
		"run/snap000010_p-1.rhdf":         {no, no},
		"run/snap000010_p9999999999.rhdf": {no, no},
		"run/snap000010_p00003.rhdf.tmp":  {no, no},
		"run/snap000010_p00003":           {no, no},
		"run/snap000010.catalog":          {no, no},
		"":                                {no, no},
	}
	for name, want := range cases {
		base, rank, ok := ParseRankFile(name)
		if got := (parsed{base, rank, ok}); got != want.rank {
			t.Errorf("ParseRankFile(%q) = %+v, want %+v", name, got, want.rank)
		}
		base, home, ok := ParseDataFile(name)
		if got := (parsed{base, home, ok}); got != want.data {
			t.Errorf("ParseDataFile(%q) = %+v, want %+v", name, got, want.data)
		}
	}
	if got := RankFile("run/snap000010", 3); got != "run/snap000010_p00003.rhdf" {
		t.Errorf("RankFile = %q", got)
	}
}

// replicatedCatalog indexes a primary pair plus a byte-identical replica
// of server 1's file homed at server 0. The replica sorts lexically before
// the primary it copies — exactly the commit-time file order — so these
// tests prove the planner prefers by replica rank, not by file index.
func replicatedCatalog(t *testing.T, fsys rt.FS) *Catalog {
	t.Helper()
	c := &Catalog{}
	s1 := map[string][]byte{
		"/fluid/pane000003/pressure": []byte("dddd"),
		"/fluid/pane000004/pressure": []byte("eeee"),
	}
	c.AddFile("snap_s000.rhdf", writeRHDF(t, fsys, "snap_s000.rhdf", map[string][]byte{
		"/fluid/pane000001/pressure": []byte("aaaa"),
	}))
	c.AddFile("snap_s000r1.rhdf", writeRHDF(t, fsys, "snap_s000r1.rhdf", s1))
	c.AddFile("snap_s001.rhdf", writeRHDF(t, fsys, "snap_s001.rhdf", s1))
	return c
}

func TestPlanReadsPrefersPrimaryOverReplica(t *testing.T) {
	fsys := rt.NewMemFS()
	c := replicatedCatalog(t, fsys)
	plans := c.PlanReads("fluid", map[int]bool{1: true, 3: true, 4: true})
	if len(plans) != 2 {
		t.Fatalf("got %d plans, want 2: %+v", len(plans), plans)
	}
	if plans[0].File != "snap_s000.rhdf" || plans[1].File != "snap_s001.rhdf" {
		t.Fatalf("planned files %s, %s — a healthy plan must never read a replica",
			plans[0].File, plans[1].File)
	}
	if len(plans[1].Entries) != 2 {
		t.Fatalf("primary snap_s001 planned %d entries, want 2", len(plans[1].Entries))
	}
}

func TestPaneSourcesOrdersPrimariesFirst(t *testing.T) {
	fsys := rt.NewMemFS()
	c := replicatedCatalog(t, fsys)
	srcs := c.PaneSources("fluid", 3)
	if len(srcs) != 2 {
		t.Fatalf("got %d sources, want 2: %+v", len(srcs), srcs)
	}
	if srcs[0].File != "snap_s001.rhdf" || srcs[1].File != "snap_s000r1.rhdf" {
		t.Fatalf("source order %s, %s — want primary first", srcs[0].File, srcs[1].File)
	}
	for _, src := range srcs {
		for _, e := range src.Entries {
			if e.Pane != 3 {
				t.Fatalf("source %s carries pane %d entry", src.File, e.Pane)
			}
		}
	}
	if srcs := c.PaneSources("fluid", 99); len(srcs) != 0 {
		t.Fatalf("unknown pane has %d sources", len(srcs))
	}
}

func TestCoalesce(t *testing.T) {
	// A file's datasets sit back to back after the header: six of 10, 5, 5,
	// 5, 15 and 5 bytes, of which the plan wants the 1st, 2nd, 4th and 6th.
	fsys := rt.NewMemFS()
	w, err := hdf.Create(fsys, "c.rhdf", rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{10, 5, 5, 5, 15, 5} {
		if err := w.CreateDataset(fmt.Sprintf("/w/pane000001/a%d", i), hdf.U8, []int64{int64(n)}, nil, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, sets, err := hdf.ScanDir(fsys, "c.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	c := &Catalog{}
	c.AddFile("c.rhdf", sets)
	h := hdf.HeaderSize()
	ents := []Entry{
		c.Entries[0], // [h, h+10)
		c.Entries[1], // [h+10, h+15), adjacent: merges
		c.Entries[3], // [h+20, h+25), gap 5
		c.Entries[5], // [h+40, h+45)
	}
	if got := Coalesce(ents, 0); !reflect.DeepEqual(got, []Run{{h, 15}, {h + 20, 5}, {h + 40, 5}}) {
		t.Fatalf("maxGap 0: %v", got)
	}
	if got := Coalesce(ents, 5); !reflect.DeepEqual(got, []Run{{h, 25}, {h + 40, 5}}) {
		t.Fatalf("maxGap 5: %v", got)
	}
	if got := Coalesce(nil, 0); got != nil {
		t.Fatalf("empty: %v", got)
	}
}

func TestRepartitionDeterministic(t *testing.T) {
	// Contiguous runs of the sorted universe, sizes within one, the
	// longer first.
	got := Repartition([]int{42, 7, 100, 3, 9, 55}, 4)
	want := [][]int{{3, 7}, {9, 42}, {55}, {100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Repartition = %v, want %v", got, want)
	}
	// The writing topology restarts with every rank's own panes: three
	// writers of four panes each (rank r's IDs 1000r+1..1000r+4).
	var ids []int
	for r := 2; r >= 0; r-- {
		for p := 4; p >= 1; p-- {
			ids = append(ids, 1000*r+p)
		}
	}
	for r, share := range Repartition(ids, 3) {
		if want := []int{1000*r + 1, 1000*r + 2, 1000*r + 3, 1000*r + 4}; !reflect.DeepEqual(share, want) {
			t.Fatalf("rank %d's share = %v, want its own panes %v", r, share, want)
		}
	}
	// Duplicates collapse; more ranks than panes leaves tail ranks empty.
	got = Repartition([]int{5, 5, 1}, 4)
	if !reflect.DeepEqual(got[0], []int{1}) || !reflect.DeepEqual(got[1], []int{5}) ||
		got[2] != nil || got[3] != nil {
		t.Fatalf("Repartition dup = %v", got)
	}
	if Repartition([]int{1}, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestRepartitionMoreRanksThanPanes(t *testing.T) {
	// A restart with more servers than the writing run had panes: each of
	// the first len(panes) ranks gets exactly one pane, the rest get none
	// and must still participate in the collective without reading.
	got := Repartition([]int{30, 10, 20}, 8)
	if len(got) != 8 {
		t.Fatalf("got %d shares, want 8", len(got))
	}
	want := [][]int{{10}, {20}, {30}}
	for i, w := range want {
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("share %d = %v, want %v", i, got[i], w)
		}
	}
	for i := 3; i < 8; i++ {
		if got[i] != nil {
			t.Fatalf("share %d = %v, want empty", i, got[i])
		}
	}
}

func TestRepartitionZeroPanes(t *testing.T) {
	// An empty universe (nothing committed in the window) still yields one
	// well-formed empty share per rank, for both nil and empty inputs.
	for _, ids := range [][]int{nil, {}} {
		got := Repartition(ids, 3)
		if len(got) != 3 {
			t.Fatalf("Repartition(%v, 3) has %d shares", ids, len(got))
		}
		for i, share := range got {
			if len(share) != 0 {
				t.Fatalf("share %d = %v, want empty", i, share)
			}
		}
	}
}

// readBack reads and decodes the blob WriteBlob put beside base.
func readBack(fsys rt.FS, base string) (*Catalog, error) {
	blob, err := hdf.ReadFile(fsys, base+Suffix)
	if err != nil {
		return nil, err
	}
	return Decode(blob)
}

func TestWriteLoadRoundTrip(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	blob := c.Encode()
	size, crc, err := WriteBlob(fsys, "snap", blob)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := ReadHeader(blob); err != nil || size != int64(len(blob)) || crc != h.CRC {
		t.Fatalf("WriteBlob returned size %d crc %08x, want %d and the header's crc (%v)", size, crc, len(blob), err)
	}
	if _, err := fsys.Open("snap" + Suffix + hdf.TmpSuffix); err == nil {
		t.Fatal("staging file left behind")
	}
	got, err := readBack(fsys, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if loadFiles(t, fsys, got); !reflect.DeepEqual(got.Files, c.Files) || len(got.Entries) != len(c.Entries) {
		t.Fatalf("Load mismatch: %+v", got)
	}
}

func TestLoadRejectsCorruptBlob(t *testing.T) {
	fsys := rt.NewMemFS()
	c := buildCatalog(t, fsys)
	if _, _, err := WriteBlob(fsys, "snap", c.Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("snap" + Suffix)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	blob := make([]byte, size)
	f.ReadAt(blob, 0)
	f.Close()

	flipped := append([]byte(nil), blob...)
	flipped[headerSize+3] ^= 0x10
	g, _ := fsys.Create("snap" + Suffix)
	g.WriteAt(flipped, 0)
	g.Close()
	if _, err := readBack(fsys, "snap"); err == nil {
		t.Fatal("bit-flipped catalog loaded without error")
	}

	for _, blob := range [][]byte{
		nil,
		[]byte("RC"),
		[]byte("XCAT\x01\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("RCAT\x09\x00\x00\x00\x00\x00\x00\x00"),
	} {
		if _, err := Decode(blob); err == nil {
			t.Fatalf("Decode(%q) succeeded", blob)
		}
	}
}
