package roccom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
)

// IOSet is one dataset extracted from a pane — the unit that flows through
// the I/O stack, whether onto the wire (client to Rocpanda server) or into
// an RHDF file. Name is the full dataset path.
type IOSet struct {
	Name  string
	Type  hdf.DType
	Dims  []int64
	Attrs []hdf.Attr
	Data  []byte
}

// NumBytes returns the payload size.
func (s *IOSet) NumBytes() int { return len(s.Data) }

// Dataset path grammar: /<window>/pane<ID>/<attr>. The mesh itself is
// stored under the reserved attribute names "_coords" and "_conn".
const (
	coordsAttr = "_coords"
	connAttr   = "_conn"
)

// PanePrefix returns the dataset path prefix of a pane.
func PanePrefix(window string, paneID int) string {
	return fmt.Sprintf("/%s/pane%06d/", window, paneID)
}

// ParseDatasetName splits a dataset path into window, pane ID, and
// attribute name. The grammar is exactly three slashes, the first leading:
// "/<window>/pane<ID>/<attr>", where window and attr may be empty and ID is
// what strconv.Atoi accepts (an optional sign, then decimal digits, in int
// range). It allocates nothing, whether name is a string or a directory
// entry's name bytes in place; window and attr are subslices of name.
func ParseDatasetName[S ~string | ~[]byte](name S) (window S, paneID int, attr S, ok bool) {
	if len(name) == 0 || name[0] != '/' {
		return window, 0, attr, false
	}
	window, rest, ok1 := cutSlash(name[1:])
	pane, attr, ok2 := cutSlash(rest)
	if _, _, extra := cutSlash(attr); !ok1 || !ok2 || extra || len(pane) < len("pane") {
		return window, 0, attr, false
	}
	for i := range len("pane") {
		if pane[i] != "pane"[i] {
			return window, 0, attr, false
		}
	}
	if paneID, ok = atoi(pane[len("pane"):]); !ok {
		return window, 0, attr, false
	}
	return window, paneID, attr, true
}

// cutSlash is strings.Cut(s, "/") for either kind of name.
func cutSlash[S ~string | ~[]byte](s S) (before, after S, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i], s[i+1:], true
		}
	}
	return s, s[len(s):], false
}

// atoi accepts what strconv.Atoi accepts — an optional sign, then at least
// one decimal digit, the value in int range — without the error value
// Atoi allocates on a rejection.
func atoi[S ~string | ~[]byte](s S) (int, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		n = -n // limit+1 wraps to math.MinInt
	}
	return int(n), len(s) > 0
}

// PaneIOSets extracts datasets from a pane. The attribute selector follows
// the paper's write_attribute semantics: "all" writes the mesh and every
// declared attribute, "mesh" writes only the mesh, and any other value
// writes the single named attribute.
//
// The view rule: a set's Data aliases its pane's arrays (on little-endian
// hosts; elsewhere it is a converted copy) until the pane next changes, so
// whoever holds a set past the call that packed it copies it — T-Rochdf's
// buffered block does; a send, a write-through block and a migration consume
// the sets before they return and copy nothing.
func PaneIOSets(w *Window, p *Pane, attr string) ([]IOSet, error) {
	prefix := PanePrefix(w.Name, p.ID)
	var sets []IOSet

	addMesh := attr == "all" || attr == "mesh"
	if addMesh {
		b := p.Block
		meshAttrs := []hdf.Attr{
			hdf.I32Attr("kind", int32(b.Kind)),
			hdf.I32Attr("extent", int32(b.NI), int32(b.NJ), int32(b.NK)),
			hdf.I32Attr("level", int32(b.Level)),
		}
		sets = append(sets, IOSet{
			Name:  prefix + coordsAttr,
			Type:  hdf.F64,
			Dims:  []int64{int64(b.NumNodes()), 3},
			Attrs: meshAttrs,
			Data:  f64View(b.Coords),
		})
		if b.Kind == mesh.Unstructured {
			sets = append(sets, IOSet{
				Name: prefix + connAttr,
				Type: hdf.I32,
				Dims: []int64{int64(b.NumElems()), 4},
				Data: i32View(b.Conn),
			})
		}
	}
	if attr == "mesh" {
		return sets, nil
	}

	var specs []AttrSpec
	if attr == "all" {
		specs = w.Attributes()
	} else {
		spec, ok := w.Attribute(attr)
		if !ok {
			return nil, fmt.Errorf("roccom: window %q has no attribute %q", w.Name, attr)
		}
		specs = []AttrSpec{spec}
	}
	for _, spec := range specs {
		a, ok := p.Array(spec.Name)
		if !ok {
			return nil, fmt.Errorf("roccom: pane %d missing attribute %q", p.ID, spec.Name)
		}
		items := spec.items(p.Block)
		sets = append(sets, IOSet{
			Name: prefix + spec.Name,
			Type: spec.Type,
			Dims: []int64{int64(items), int64(spec.NComp)},
			Attrs: []hdf.Attr{
				hdf.StrAttr("location", string(spec.Loc)),
			},
			Data: a.Bytes(),
		})
	}
	return sets, nil
}

// RestorePane rebuilds a pane from its datasets (read from a restart file)
// and registers it in the window: the mesh block is reconstructed from the
// reserved datasets and every attribute present is decoded into the pane's
// arrays. Attributes declared on the window but absent from sets are left
// zero.
func RestorePane(w *Window, paneID int, sets []IOSet) (*Pane, error) {
	byAttr := make(map[string]*IOSet, len(sets))
	for i := range sets {
		_, id, attr, ok := ParseDatasetName(sets[i].Name)
		if !ok {
			return nil, fmt.Errorf("roccom: bad dataset name %q", sets[i].Name)
		}
		if id != paneID {
			return nil, fmt.Errorf("roccom: dataset %q does not belong to pane %d", sets[i].Name, paneID)
		}
		byAttr[attr] = &sets[i]
	}
	cs, ok := byAttr[coordsAttr]
	if !ok {
		return nil, fmt.Errorf("roccom: pane %d restart data has no mesh coordinates", paneID)
	}
	kindA, ok1 := attrOf(cs, "kind")
	extentA, ok2 := attrOf(cs, "extent")
	levelA, ok3 := attrOf(cs, "level")
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("roccom: pane %d coords dataset missing mesh metadata", paneID)
	}
	b := &mesh.Block{
		ID:     paneID,
		Kind:   mesh.Kind(kindA.I32s()[0]),
		Coords: hdf.BytesF64(cs.Data),
		Level:  int(levelA.I32s()[0]),
	}
	ext := extentA.I32s()
	if len(ext) == 3 {
		b.NI, b.NJ, b.NK = int(ext[0]), int(ext[1]), int(ext[2])
	}
	if b.Kind == mesh.Unstructured {
		conn, ok := byAttr[connAttr]
		if !ok {
			return nil, fmt.Errorf("roccom: unstructured pane %d has no connectivity", paneID)
		}
		b.Conn = hdf.BytesI32(conn.Data)
		b.NI, b.NJ, b.NK = 0, 0, 0
	}
	p, err := w.RegisterPane(paneID, b)
	if err != nil {
		return nil, err
	}
	for _, spec := range w.Attributes() {
		s, ok := byAttr[spec.Name]
		if !ok {
			continue
		}
		a, _ := p.Array(spec.Name)
		if err := a.SetBytes(s.Data); err != nil {
			w.DeletePane(paneID)
			return nil, err
		}
	}
	return p, nil
}

// ApplyRestart installs one pane's restart data into the window, the step
// every I/O module's read_attribute ends with: full replacement of the pane
// for "all" (it need not be registered yet), a fill of the one named
// attribute of a registered pane otherwise.
func ApplyRestart(w *Window, paneID int, attr string, sets []IOSet) error {
	if attr == "all" {
		if _, ok := w.Pane(paneID); ok {
			if err := w.DeletePane(paneID); err != nil {
				return err
			}
		}
		_, err := RestorePane(w, paneID, sets)
		return err
	}
	p, ok := w.Pane(paneID)
	if !ok {
		return fmt.Errorf("roccom: restart for unknown pane %d", paneID)
	}
	a, ok := p.Array(attr)
	if !ok {
		return fmt.Errorf("roccom: window %q has no attribute %q", w.Name, attr)
	}
	for _, s := range sets {
		_, _, name, _ := ParseDatasetName(s.Name)
		if name == attr {
			return a.SetBytes(s.Data)
		}
	}
	return fmt.Errorf("roccom: attribute %q missing from restart block of pane %d", attr, paneID)
}

func attrOf(s *IOSet, name string) (hdf.Attr, bool) {
	for _, a := range s.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return hdf.Attr{}, false
}

// IOSetSegments is the wire form of datasets (a Rocpanda block, a migrated
// pane) as segments, in order: the codec's own header bytes — set count,
// names, types, dims, attributes, lengths — between each set's Data as it
// stands, a view and never a copy. mpi.Comm.Send gathers them into the
// message in one pass, the way an MPI derived datatype packs noncontiguous
// data; their concatenation is EncodeIOSets.
func IOSetSegments(sets []IOSet) [][]byte {
	n := 4
	for _, s := range sets {
		n += 2 + len(s.Name) + 2 + 8*len(s.Dims) + 2 + 8
		for _, a := range s.Attrs {
			n += 2 + len(a.Name) + 1 + 4 + len(a.Data)
		}
	}
	hdr := make([]byte, 0, n) // sized once: the segments below alias it
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(sets)))
	segs := make([][]byte, 0, 2*len(sets)+1)
	from := 0
	for _, s := range sets {
		hdr = hdf.AppendStr(hdr, s.Name)
		hdr = append(hdr, byte(s.Type), byte(len(s.Dims)))
		for _, d := range s.Dims {
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d))
		}
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(s.Attrs)))
		for _, a := range s.Attrs {
			hdr = hdf.AppendStr(hdr, a.Name)
			hdr = append(hdr, byte(a.Type))
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(a.Data)))
			hdr = append(hdr, a.Data...)
		}
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.Data)))
		segs = append(segs, hdr[from:len(hdr):len(hdr)], s.Data)
		from = len(hdr)
	}
	if len(sets) == 0 {
		segs = append(segs, hdr) // the count alone
	}
	return segs
}

// EncodeIOSets is the wire form in one buffer: IOSetSegments concatenated,
// allocated once at its exact size.
func EncodeIOSets(sets []IOSet) []byte {
	return bytes.Join(IOSetSegments(sets), nil)
}

// minIOSetBytes is the encoded size of a set with empty name, dims, attrs
// and data: two length prefixes, type, rank, attr count.
const minIOSetBytes = 2 + 1 + 1 + 2 + 8

// minAttrBytes is the encoded size of an attribute with empty name and data.
const minAttrBytes = 2 + 1 + 4

// DecodeIOSets parses the wire form produced by EncodeIOSets, and nothing
// else: any byte string is safe to pass, damage — trailing bytes included —
// is an error, never a panic or an allocation sized by the damage. Payloads
// are decoded by alias: every Data and attribute value is a capacity-capped
// subslice of b (hdf.Cursor.Bytes), which the caller — a message's receiver —
// already owns and must not reuse while the sets live.
func DecodeIOSets(b []byte) ([]IOSet, error) {
	c := hdf.NewCursor(b)
	n := c.Fits(int(c.U32()), minIOSetBytes)
	if c.Err() != nil {
		return nil, fmt.Errorf("roccom: corrupt IOSet stream: %w", c.Err())
	}
	sets := make([]IOSet, 0, n)
	for i := 0; i < n; i++ {
		var s IOSet
		s.Name = c.Str()
		s.Type = hdf.DType(c.U8())
		s.Dims = make([]int64, c.Fits(int(c.U8()), 8))
		for j := range s.Dims {
			s.Dims[j] = int64(c.U64())
		}
		s.Attrs = make([]hdf.Attr, c.Fits(int(c.U16()), minAttrBytes))
		for j := range s.Attrs {
			s.Attrs[j].Name = c.Str()
			s.Attrs[j].Type = hdf.DType(c.U8())
			s.Attrs[j].Data = c.Bytes(int(c.U32()))
		}
		s.Data = c.Bytes(int(c.U64()))
		if c.Err() != nil {
			return nil, fmt.Errorf("roccom: corrupt IOSet stream at %d: %w", i, c.Err())
		}
		sets = append(sets, s)
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("roccom: corrupt IOSet stream: %w", err)
	}
	return sets, nil
}
