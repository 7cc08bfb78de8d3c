package roccom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/stats"
)

func testBlocks(t testing.TB, n int) []*mesh.Block {
	t.Helper()
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.5, Length: 1,
		BR: 1, BT: n, BZ: 1, NodesPerBlock: 120, Spread: 0.3,
	}, 1, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func fluidWindow(t testing.TB, rc *Roccom, blocks []*mesh.Block) *Window {
	t.Helper()
	w, err := rc.NewWindow("fluid")
	if err != nil {
		t.Fatal(err)
	}
	specs := []AttrSpec{
		{Name: "pressure", Loc: NodeLoc, Type: hdf.F64, NComp: 1},
		{Name: "velocity", Loc: NodeLoc, Type: hdf.F64, NComp: 3},
		{Name: "density", Loc: ElemLoc, Type: hdf.F32, NComp: 1},
		{Name: "bcflag", Loc: PaneLoc, Type: hdf.I32, NComp: 2},
	}
	for _, s := range specs {
		if err := w.NewAttribute(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range blocks {
		if _, err := w.RegisterPane(b.ID, b); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWindowPaneLifecycle(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 4)
	w := fluidWindow(t, rc, blocks)

	if w.NumPanes() != 4 {
		t.Fatalf("NumPanes = %d", w.NumPanes())
	}
	if got := fmt.Sprint(w.PaneIDs()); got != "[1 2 3 4]" {
		t.Fatalf("PaneIDs = %v", got)
	}
	p, ok := w.Pane(2)
	if !ok {
		t.Fatal("pane 2 missing")
	}
	// Array sizes must match the spec and the block.
	a, _ := p.Array("velocity")
	if a.Len() != 3*p.Block.NumNodes() {
		t.Fatalf("velocity len %d, want %d", a.Len(), 3*p.Block.NumNodes())
	}
	d, _ := p.Array("density")
	if len(d.F32) != p.Block.NumElems() {
		t.Fatalf("density len %d, want %d", len(d.F32), p.Block.NumElems())
	}
	bc, _ := p.Array("bcflag")
	if len(bc.I32) != 2 {
		t.Fatalf("bcflag len %d, want 2", len(bc.I32))
	}
	if err := w.DeletePane(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Pane(2); ok {
		t.Fatal("pane 2 still present")
	}
	if err := w.DeletePane(2); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestLateAttributeAllocatesOnPanes(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 2)
	w, _ := rc.NewWindow("solid")
	for _, b := range blocks {
		w.RegisterPane(b.ID, b)
	}
	if err := w.NewAttribute(AttrSpec{Name: "temp", Loc: NodeLoc, Type: hdf.F64, NComp: 1}); err != nil {
		t.Fatal(err)
	}
	w.EachPane(func(p *Pane) {
		a, ok := p.Array("temp")
		if !ok || len(a.F64) != p.Block.NumNodes() {
			t.Errorf("pane %d temp not allocated", p.ID)
		}
	})
}

func TestAttrValidation(t *testing.T) {
	rc := New()
	w, _ := rc.NewWindow("v")
	bad := []AttrSpec{
		{Name: "", Loc: NodeLoc, Type: hdf.F64, NComp: 1},
		{Name: "x", Loc: Location('z'), Type: hdf.F64, NComp: 1},
		{Name: "x", Loc: NodeLoc, Type: hdf.DType(42), NComp: 1},
		{Name: "x", Loc: NodeLoc, Type: hdf.F64, NComp: 0},
	}
	for i, s := range bad {
		if err := w.NewAttribute(s); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	good := AttrSpec{Name: "x", Loc: NodeLoc, Type: hdf.F64, NComp: 1}
	if err := w.NewAttribute(good); err != nil {
		t.Fatal(err)
	}
	if err := w.NewAttribute(good); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestDuplicatePaneRejected(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 1)
	w, _ := rc.NewWindow("dup")
	if _, err := w.RegisterPane(7, blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterPane(7, blocks[0]); err == nil {
		t.Fatal("duplicate pane accepted")
	}
	if _, err := w.RegisterPane(8, nil); err == nil {
		t.Fatal("nil block accepted")
	}
}

func TestWindowRegistry(t *testing.T) {
	rc := New()
	if _, err := rc.NewWindow("a.b"); err == nil {
		t.Fatal("dotted window name accepted")
	}
	if _, err := rc.NewWindow(""); err == nil {
		t.Fatal("empty window name accepted")
	}
	rc.NewWindow("b")
	rc.NewWindow("a")
	if _, err := rc.NewWindow("a"); err == nil {
		t.Fatal("duplicate window accepted")
	}
	if got := fmt.Sprint(rc.WindowNames()); got != "[a b]" {
		t.Fatalf("WindowNames = %v", got)
	}
	if err := rc.DeleteWindow("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.Window("a"); ok {
		t.Fatal("deleted window still present")
	}
}

func TestFunctionDispatch(t *testing.T) {
	rc := New()
	rc.NewWindow("mod")
	calls := 0
	err := rc.RegisterFunction("mod.ping", func(args ...interface{}) (interface{}, error) {
		calls++
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.CallFunction("mod.ping", 41)
	if err != nil || v != 42 || calls != 1 {
		t.Fatalf("call: %v %v calls=%d", v, err, calls)
	}
	if _, err := rc.CallFunction("mod.nope"); err == nil {
		t.Fatal("unknown function dispatched")
	}
	if err := rc.RegisterFunction("mod.ping", func(...interface{}) (interface{}, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate function accepted")
	}
	if err := rc.RegisterFunction("nowin.f", func(...interface{}) (interface{}, error) { return nil, nil }); err == nil {
		t.Fatal("function on unknown window accepted")
	}
	if err := rc.RegisterFunction("plain", func(...interface{}) (interface{}, error) { return nil, nil }); err == nil {
		t.Fatal("undotted function name accepted")
	}
	// Deleting the window removes its functions.
	rc.DeleteWindow("mod")
	if rc.HasFunction("mod.ping") {
		t.Fatal("function survived window deletion")
	}
}

// fakeIO records calls; it stands in for Rocpanda/Rochdf in module tests.
type fakeIO struct {
	writes, reads, syncs int
	lastFile, lastAttr   string
}

func (f *fakeIO) WriteAttribute(file string, w *Window, attr string, tm float64, step int) error {
	f.writes++
	f.lastFile, f.lastAttr = file, attr
	return nil
}
func (f *fakeIO) ReadAttribute(file string, w *Window, attr string) error {
	f.reads++
	f.lastFile, f.lastAttr = file, attr
	return nil
}
func (f *fakeIO) Sync() error { f.syncs++; return nil }

// fakeModule loads a fakeIO as a service module.
type fakeModule struct{ io *fakeIO }

func (m *fakeModule) Load(rc *Roccom, name string) error {
	if _, err := rc.NewWindow(name); err != nil {
		return err
	}
	return RegisterIOService(rc, name, m.io)
}

func (m *fakeModule) Unload(rc *Roccom, name string) error {
	return rc.DeleteWindow(name)
}

func TestModuleLoadUnloadAndIOService(t *testing.T) {
	rc := New()
	fio := &fakeIO{}
	mod := &fakeModule{io: fio}
	if err := rc.LoadModule(mod, "RocpandaIO"); err != nil {
		t.Fatal(err)
	}
	if !rc.ModuleLoaded("RocpandaIO") {
		t.Fatal("module not loaded")
	}
	if err := rc.LoadModule(mod, "RocpandaIO"); err == nil {
		t.Fatal("double load accepted")
	}

	blocks := testBlocks(t, 1)
	w := fluidWindow(t, rc, blocks)

	svc, err := LoadedIO(rc, "RocpandaIO")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteAttribute("snap0001", w, "all", 0.5, 50); err != nil {
		t.Fatal(err)
	}
	if err := svc.ReadAttribute("snap0001", w, "all"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Sync(); err != nil {
		t.Fatal(err)
	}
	if fio.writes != 1 || fio.reads != 1 || fio.syncs != 1 {
		t.Fatalf("calls = %+v", fio)
	}
	if fio.lastFile != "snap0001" || fio.lastAttr != "all" {
		t.Fatalf("args = %q %q", fio.lastFile, fio.lastAttr)
	}

	// Bad argument types must be rejected by the dispatch shims.
	if _, err := rc.CallFunction("RocpandaIO.write_attribute", 1, 2, 3, 4, 5); err == nil {
		t.Fatal("bad args accepted")
	}
	if _, err := rc.CallFunction("RocpandaIO.write_attribute", "f", w, "all"); err == nil {
		t.Fatal("short args accepted")
	}

	if err := rc.UnloadModule("RocpandaIO"); err != nil {
		t.Fatal(err)
	}
	if rc.ModuleLoaded("RocpandaIO") {
		t.Fatal("module still loaded")
	}
	if _, err := LoadedIO(rc, "RocpandaIO"); err == nil {
		t.Fatal("LoadedIO found unloaded module")
	}
	if err := rc.UnloadModule("RocpandaIO"); err == nil {
		t.Fatal("double unload accepted")
	}
}

func TestPaneIOSetsAndRestore(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 3)
	w := fluidWindow(t, rc, blocks)

	// Fill pane 2 with recognizable data.
	p, _ := w.Pane(2)
	pr, _ := p.Array("pressure")
	for i := range pr.F64 {
		pr.F64[i] = float64(i) * 0.5
	}
	vel, _ := p.Array("velocity")
	for i := range vel.F64 {
		vel.F64[i] = -float64(i)
	}
	den, _ := p.Array("density")
	for i := range den.F32 {
		den.F32[i] = float32(i) + 0.25
	}
	bc, _ := p.Array("bcflag")
	bc.I32[0], bc.I32[1] = 7, -7

	sets, err := PaneIOSets(w, p, "all")
	if err != nil {
		t.Fatal(err)
	}
	// structured mesh: coords + 4 attributes = 5 datasets.
	if len(sets) != 5 {
		t.Fatalf("got %d datasets", len(sets))
	}
	for _, s := range sets {
		win, id, attr, ok := ParseDatasetName(s.Name)
		if !ok || win != "fluid" || id != 2 {
			t.Fatalf("bad dataset name %q", s.Name)
		}
		if attr == "" {
			t.Fatalf("empty attr in %q", s.Name)
		}
	}

	// Round-trip through the wire codec.
	decoded, err := DecodeIOSets(EncodeIOSets(sets))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(sets) {
		t.Fatalf("decoded %d, want %d", len(decoded), len(sets))
	}

	// Restore into a fresh window with the same declarations.
	rc2 := New()
	w2, _ := rc2.NewWindow("fluid")
	for _, s := range w.Attributes() {
		w2.NewAttribute(s)
	}
	p2, err := RestorePane(w2, 2, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Block.NumNodes() != p.Block.NumNodes() || p2.Block.Kind != p.Block.Kind {
		t.Fatal("mesh not restored")
	}
	if p2.Block.NI != p.Block.NI || p2.Block.NK != p.Block.NK {
		t.Fatal("extent not restored")
	}
	pr2, _ := p2.Array("pressure")
	for i := range pr2.F64 {
		if pr2.F64[i] != pr.F64[i] {
			t.Fatalf("pressure[%d] = %v, want %v", i, pr2.F64[i], pr.F64[i])
		}
	}
	den2, _ := p2.Array("density")
	for i := range den2.F32 {
		if den2.F32[i] != den.F32[i] {
			t.Fatal("density mismatch")
		}
	}
	bc2, _ := p2.Array("bcflag")
	if bc2.I32[0] != 7 || bc2.I32[1] != -7 {
		t.Fatal("bcflag mismatch")
	}
}

func TestPaneIOSetsUnstructured(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 1)
	tet, err := mesh.Tetrahedralize(blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	w, _ := rc.NewWindow("solid")
	w.NewAttribute(AttrSpec{Name: "stress", Loc: ElemLoc, Type: hdf.F64, NComp: 6})
	p, err := w.RegisterPane(tet.ID, tet)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := PaneIOSets(w, p, "all")
	if err != nil {
		t.Fatal(err)
	}
	// coords + conn + stress.
	if len(sets) != 3 {
		t.Fatalf("%d datasets", len(sets))
	}
	w2 := New()
	sw, _ := w2.NewWindow("solid")
	sw.NewAttribute(AttrSpec{Name: "stress", Loc: ElemLoc, Type: hdf.F64, NComp: 6})
	p2, err := RestorePane(sw, tet.ID, sets)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Block.Kind != mesh.Unstructured || p2.Block.NumElems() != tet.NumElems() {
		t.Fatal("unstructured mesh not restored")
	}
	if err := p2.Block.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaneIOSetsSelectors(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 1)
	w := fluidWindow(t, rc, blocks)
	p, _ := w.Pane(1)

	meshOnly, err := PaneIOSets(w, p, "mesh")
	if err != nil || len(meshOnly) != 1 {
		t.Fatalf("mesh selector: %d sets, %v", len(meshOnly), err)
	}
	if !strings.HasSuffix(meshOnly[0].Name, "_coords") {
		t.Fatalf("mesh selector produced %q", meshOnly[0].Name)
	}
	one, err := PaneIOSets(w, p, "pressure")
	if err != nil || len(one) != 1 {
		t.Fatalf("single selector: %d sets, %v", len(one), err)
	}
	if _, err := PaneIOSets(w, p, "nosuch"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestRestorePaneErrors(t *testing.T) {
	rc := New()
	w, _ := rc.NewWindow("fluid")
	if _, err := RestorePane(w, 1, nil); err == nil {
		t.Fatal("restore with no datasets accepted")
	}
	if _, err := RestorePane(w, 1, []IOSet{{Name: "garbage"}}); err == nil {
		t.Fatal("bad dataset name accepted")
	}
	if _, err := RestorePane(w, 1, []IOSet{{Name: "/fluid/pane000002/_coords"}}); err == nil {
		t.Fatal("pane ID mismatch accepted")
	}
}

func TestDecodeIOSetsCorrupt(t *testing.T) {
	rc := New()
	blocks := testBlocks(t, 1)
	w := fluidWindow(t, rc, blocks)
	p, _ := w.Pane(1)
	sets, _ := PaneIOSets(w, p, "all")
	enc := EncodeIOSets(sets)
	if _, err := DecodeIOSets(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if sets2, err := DecodeIOSets(EncodeIOSets(nil)); err != nil || len(sets2) != 0 {
		t.Fatalf("empty stream: %v %v", sets2, err)
	}
	// Not even a count; a count no payload could hold; a data length that
	// overflows the cursor's offset arithmetic.
	huge := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(huge, 0xfffffff0)
	overflow := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for name, bad := range map[string][]byte{"no bytes": nil, "short count": {1, 0}, "huge count": huge, "overflowing length": overflow} {
		if _, err := DecodeIOSets(bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestPaneIOSetsAreViews pins the view rule: on a little-endian host a
// packed set is the pane's own memory until the pane changes, and a view is
// capacity-capped, so appending to it never writes into the pane.
func TestPaneIOSetsAreViews(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian hosts pack by copy")
	}
	w := fluidWindow(t, New(), testBlocks(t, 1))
	p, _ := w.Pane(1)
	sets, err := PaneIOSets(w, p, "pressure")
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := p.Array("pressure")
	pr.F64[0] = 2.5
	if got := hdf.BytesF64(sets[0].Data)[0]; got != 2.5 || cap(sets[0].Data) != len(sets[0].Data) {
		t.Fatalf("set reads %v after the pane changed (cap %d, len %d): not a capped view", got, cap(sets[0].Data), len(sets[0].Data))
	}
}

// TestWireSegmentsAndAliases: the segment form concatenates to the encoded
// form and carries each set's Data as the view it was, and decoding aliases
// the message — capacity-capped, so appending to one decoded payload (data
// or attribute) reallocates it instead of overwriting the next field.
func TestWireSegmentsAndAliases(t *testing.T) {
	sets := []IOSet{
		{Name: "/w/pane000001/a", Type: hdf.U8, Dims: []int64{3}, Attrs: []hdf.Attr{hdf.StrAttr("u", "xy"), hdf.StrAttr("v", "z")}, Data: []byte{1, 2, 3}},
		{Name: "/w/pane000001/b", Type: hdf.U8, Dims: []int64{2}, Attrs: []hdf.Attr{hdf.StrAttr("u", "q")}, Data: []byte{4, 5}},
	}
	segs := IOSetSegments(sets)
	msg := EncodeIOSets(sets)
	if !bytes.Equal(bytes.Join(segs, nil), msg) || len(msg) != cap(msg) {
		t.Fatalf("segments %x do not concatenate to the exact-size encoding %x", segs, msg)
	}
	if &segs[1][0] != &sets[0].Data[0] || &segs[3][0] != &sets[1].Data[0] {
		t.Fatal("a set's Data was copied into its segments")
	}
	if got := IOSetSegments(nil); len(got) != 1 || !bytes.Equal(got[0], EncodeIOSets(nil)) {
		t.Fatalf("no sets: segments %x", got)
	}

	dec, err := DecodeIOSets(msg)
	if err != nil {
		t.Fatal(err)
	}
	if &dec[1].Data[0] != &msg[len(msg)-2] {
		t.Fatal("decoded Data is a copy, not a view of the message")
	}
	for _, s := range dec {
		for _, b := range append([][]byte{s.Data}, s.Attrs[0].Data) {
			if cap(b) != len(b) {
				t.Fatalf("decoded field %q has capacity %d past its length %d", b, cap(b), len(b))
			}
		}
	}
	_ = append(dec[0].Data, 0xee, 0xee, 0xee)
	_ = append(dec[0].Attrs[0].Data, 0xee)
	if !bytes.Equal(msg, EncodeIOSets(sets)) || dec[0].Attrs[1].Str() != "z" || !bytes.Equal(dec[1].Data, []byte{4, 5}) {
		t.Fatal("appending to one decoded payload overwrote the next field")
	}
}

func TestParseDatasetName(t *testing.T) {
	win, id, attr, ok := ParseDatasetName("/fluid/pane000042/pressure")
	if !ok || win != "fluid" || id != 42 || attr != "pressure" {
		t.Fatalf("parse = %q %d %q %v", win, id, attr, ok)
	}
	if win, id, attr, ok := ParseDatasetName([]byte("//pane-7/")); !ok || len(win) != 0 || id != -7 || len(attr) != 0 {
		t.Fatalf("parse of bytes = %q %d %q %v", win, id, attr, ok)
	}
	// The corners of the grammar, strconv.Atoi's quirks among them: each
	// name parses as the reference (strings.Split, then Atoi) parses it,
	// from a string and from bytes alike.
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"/fluid/pane000042/pressure", true},
		{"/w/pane+3/a", true},
		{"/w/pane-3/a", true},
		{"/w/pane-0/a", true},
		{"/w/pane0007/a", true},
		{"//pane1/", true},
		{"/w/pane9223372036854775807/a", true},
		{"/w/pane-9223372036854775808/a", true},
		{"/w/pane9223372036854775808/a", false},
		{"/w/pane-9223372036854775809/a", false},
		{"/w/pane99999999999999999999/a", false},
		{"/w/pane/a", false},
		{"/w/pane+/a", false},
		{"/w/pane-/a", false},
		{"/w/pane+-1/a", false},
		{"/w/pane1_000/a", false},
		{"/w/pane0x10/a", false},
		{"/w/pane 1/a", false},
		{"/w/pane1 /a", false},
		{"/w/Pane1/a", false},
		{"/w/pan1/a", false},
		{"/w/xpane1/a", false},
		{"", false},
		{"/", false},
		{"_meta", false},
		{"/a/b", false},
		{"/a/b/c", false},
		{"/a/paneX/c", false},
		{"a/pane0001/c", false},
		{"/a/pane0001/c/d", false},
		{"/a/pane0001/c/", false},
	} {
		w, id, a, ok := ParseDatasetName(tc.name)
		bw, bid, ba, bok := ParseDatasetName([]byte(tc.name))
		rw, rid, ra, rok := splitParse(tc.name)
		if ok != tc.ok || rok != tc.ok || bok != ok || ok && (w != rw || id != rid || a != ra || string(bw) != w || bid != id || string(ba) != a) {
			t.Errorf("%q: parsed %q %d %q %v, bytes %q %d %q %v, reference %q %d %q %v, want ok %v",
				tc.name, w, id, a, ok, bw, bid, ba, bok, rw, rid, ra, rok, tc.ok)
		}
	}
	if PanePrefix("fluid", 42) != "/fluid/pane000042/" {
		t.Fatal("PanePrefix format changed")
	}
	for _, id := range []int{0, 7, 99999, 999999, 1234567, -1, -42, -99999, -100000, math.MaxInt, math.MinInt} {
		if got, want := PanePrefix("w", id), fmt.Sprintf("/%s/pane%06d/", "w", id); got != want {
			t.Errorf("PanePrefix(%d) = %q, fmt's %%06d writes %q", id, got, want)
		}
	}
}

// splitParse is the pane-path grammar as strings.Split and strconv.Atoi
// state it: the reference ParseDatasetName must agree with.
func splitParse(name string) (window string, paneID int, attr string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 4 || parts[0] != "" || !strings.HasPrefix(parts[2], "pane") {
		return "", 0, "", false
	}
	id, err := strconv.Atoi(parts[2][len("pane"):])
	if err != nil {
		return "", 0, "", false
	}
	return parts[1], id, parts[3], true
}

// TestParseDatasetNameAllocatesNothing: the commit runs the grammar on
// every dataset of a generation, accepted or not, string or bytes.
func TestParseDatasetNameAllocatesNothing(t *testing.T) {
	names := []string{"/fluid/pane000042/pressure", "/fluid/paneX/pressure", "/w/pane99999999999999999999/a", "_meta"}
	var raw [][]byte
	for _, n := range names {
		raw = append(raw, []byte(n))
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range names {
			ParseDatasetName(names[i])
			ParseDatasetName(raw[i])
		}
	}); n != 0 {
		t.Fatalf("ParseDatasetName allocates %.1f times per run", n)
	}
}

// FuzzParseDatasetName: for any name, ParseDatasetName agrees with the
// reference grammar, from a string and from bytes alike.
func FuzzParseDatasetName(f *testing.F) {
	for _, seed := range []string{"/fluid/pane000042/pressure", "/w/pane-3/a", "/w/pane+0/", "//pane1/", "_meta", "/a/b/c"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		w, id, a, ok := ParseDatasetName(name)
		bw, bid, ba, bok := ParseDatasetName([]byte(name))
		rw, rid, ra, rok := splitParse(name)
		if ok != rok || bok != ok || ok && (w != rw || id != rid || a != ra || string(bw) != w || bid != id || string(ba) != a) {
			t.Fatalf("%q: parsed %q %d %q %v, bytes %q %d %q %v, reference %q %d %q %v",
				name, w, id, a, ok, bw, bid, ba, bok, rw, rid, ra, rok)
		}
	})
}
