package roccom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

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

// PanePrefix returns the dataset path prefix of a pane:
// "/<window>/pane<ID>/", the ID as fmt's %06d writes it.
func PanePrefix(window string, paneID int) string {
	return string(appendPanePrefix(nil, window, paneID))
}

// appendPanePrefix appends PanePrefix(window, paneID) to b: the ID
// zero-padded to six characters, a minus sign counted among them.
func appendPanePrefix(b []byte, window string, paneID int) []byte {
	b = append(b, '/')
	b = append(b, window...)
	b = append(b, "/pane"...)
	u, width := uint64(paneID), 6
	if paneID < 0 {
		b = append(b, '-')
		u, width = -u, width-1
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	b = append(b, d...)
	return append(b, '/')
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
//
// A pane costs a fixed number of allocations, however many attributes its
// window declares: one backing array each for the sets, their dims and their
// attributes, one string every name is a substring of, and the mesh
// metadata's values. Every "location" attribute value is a read-only view
// of locationBytes, shared by all packed sets.
func PaneIOSets(w *Window, p *Pane, attr string) ([]IOSet, error) {
	specs := w.specs
	switch attr {
	case "all":
	case "mesh":
		specs = nil
	default:
		i, ok := w.byNam[attr]
		if !ok {
			return nil, fmt.Errorf("roccom: window %q has no attribute %q", w.Name, attr)
		}
		specs = w.specs[i : i+1 : i+1]
	}
	b := p.Block
	reserved := [2]string{coordsAttr, connAttr}
	nMesh := 0
	if attr == "all" || attr == "mesh" {
		nMesh = 1
		if b.Kind == mesh.Unstructured {
			nMesh = 2
		}
	}
	var buf [64]byte
	prefix := appendPanePrefix(buf[:0], w.Name, p.ID)
	size, longest := 0, 0
	for _, suffix := range reserved[:nMesh] {
		size += len(prefix) + len(suffix)
		longest = max(longest, len(prefix)+len(suffix))
	}
	for _, spec := range specs {
		size += len(prefix) + len(spec.Name)
		longest = max(longest, len(prefix)+len(spec.Name))
	}
	if longest > math.MaxUint16 {
		return nil, fmt.Errorf("roccom: pane %d of window %q has a %d-byte dataset name, over the %d bytes a name may have",
			p.ID, w.Name, longest, math.MaxUint16)
	}
	// Grown to the exact total, the builder never reallocates, so each name
	// is a substring of the one string it ends up holding.
	var names strings.Builder
	names.Grow(size)
	name := func(suffix string) string {
		k := names.Len()
		names.Write(prefix)
		names.WriteString(suffix)
		return names.String()[k:]
	}

	n := nMesh + len(specs)
	sets := make([]IOSet, n)
	dims := make([]int64, 2*n)
	dimsOf := func(i int, items, comps int) []int64 {
		d := dims[2*i : 2*i+2 : 2*i+2]
		d[0], d[1] = int64(items), int64(comps)
		return d
	}
	attrs := make([]hdf.Attr, 3*min(nMesh, 1)+len(specs))
	if nMesh > 0 {
		vals := make([]byte, 0, 5*4)
		for _, v := range []int{int(b.Kind), b.NI, b.NJ, b.NK, b.Level} {
			vals = binary.LittleEndian.AppendUint32(vals, uint32(int32(v)))
		}
		attrs[0] = hdf.Attr{Name: "kind", Type: hdf.I32, Data: vals[0:4:4]}
		attrs[1] = hdf.Attr{Name: "extent", Type: hdf.I32, Data: vals[4:16:16]}
		attrs[2] = hdf.Attr{Name: "level", Type: hdf.I32, Data: vals[16:20:20]}
		sets[0] = IOSet{
			Name:  name(coordsAttr),
			Type:  hdf.F64,
			Dims:  dimsOf(0, b.NumNodes(), 3),
			Attrs: attrs[0:3:3],
			Data:  f64View(b.Coords),
		}
		if nMesh == 2 {
			sets[1] = IOSet{
				Name: name(connAttr),
				Type: hdf.I32,
				Dims: dimsOf(1, b.NumElems(), 4),
				Data: i32View(b.Conn),
			}
		}
		attrs = attrs[3:]
	}
	for j, spec := range specs {
		a, ok := p.Array(spec.Name)
		if !ok {
			return nil, fmt.Errorf("roccom: pane %d missing attribute %q", p.ID, spec.Name)
		}
		attrs[j] = hdf.Attr{Name: "location", Type: hdf.U8, Data: locationBytes[spec.Loc : spec.Loc+1 : spec.Loc+1]}
		sets[nMesh+j] = IOSet{
			Name:  name(spec.Name),
			Type:  spec.Type,
			Dims:  dimsOf(nMesh+j, spec.items(p.Block), spec.NComp),
			Attrs: attrs[j : j+1 : j+1],
			Data:  a.Bytes(),
		}
	}
	return sets, nil
}

// locationBytes holds every byte value at its own index, so a Location's
// one-byte "location" attribute value is a view of it, never an allocation.
// Packed sets share it read-only.
var locationBytes = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

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
// subslice of b, which the caller — a message's receiver — already owns and
// must not reuse while the sets live.
//
// A block costs a fixed number of allocations, however many sets it holds:
// the stream is checked and measured first (scanIOSets), then read again
// into one backing array each for the sets, their dims and their attributes,
// and every set and attribute name is a substring of one string.
func DecodeIOSets(b []byte) ([]IOSet, error) {
	n, ndims, nattrs, nameBytes, err := scanIOSets(b)
	if err != nil {
		return nil, err
	}
	// The scan has bounded every count and length, so this second pass
	// reads the stream directly: each read is in range.
	off := 4
	next := func(n int) []byte {
		off += n
		return b[off-n : off : off]
	}
	le := binary.LittleEndian
	// Grown to the exact total, the builder never reallocates, so each name
	// is a substring of the one string it ends up holding.
	var names strings.Builder
	names.Grow(nameBytes)
	name := func() string {
		k := names.Len()
		names.Write(next(int(le.Uint16(next(2)))))
		return names.String()[k:]
	}
	sets := make([]IOSet, n)
	dims := make([]int64, ndims)
	attrs := make([]hdf.Attr, nattrs)
	for i := range sets {
		s := &sets[i]
		s.Name = name()
		s.Type = hdf.DType(next(1)[0])
		k := int(next(1)[0])
		s.Dims, dims = dims[:k:k], dims[k:]
		for j := range s.Dims {
			s.Dims[j] = int64(le.Uint64(next(8)))
		}
		k = int(le.Uint16(next(2)))
		s.Attrs, attrs = attrs[:k:k], attrs[k:]
		for j := range s.Attrs {
			a := &s.Attrs[j]
			a.Name = name()
			a.Type = hdf.DType(next(1)[0])
			a.Data = next(int(le.Uint32(next(4))))
		}
		s.Data = next(int(le.Uint64(next(8))))
	}
	return sets, nil
}

// scanIOSets is DecodeIOSets' gate: it reads the wire form's headers through
// the bounded cursor, refusing any damage, and returns the set count and the
// totals that size the decode's backing arrays: dims, attributes and name
// bytes.
func scanIOSets(b []byte) (n, ndims, nattrs, nameBytes int, err error) {
	c := hdf.NewCursor(b)
	n = c.Fits(int(c.U32()), minIOSetBytes)
	if c.Err() != nil {
		return 0, 0, 0, 0, fmt.Errorf("roccom: corrupt IOSet stream: %w", c.Err())
	}
	for i := 0; i < n; i++ {
		nameBytes += len(c.Bytes(int(c.U16())))
		c.U8()
		k := c.Fits(int(c.U8()), 8)
		ndims += k
		c.Bytes(8 * k)
		k = c.Fits(int(c.U16()), minAttrBytes)
		nattrs += k
		for range k {
			nameBytes += len(c.Bytes(int(c.U16())))
			c.U8()
			c.Bytes(int(c.U32()))
		}
		c.Bytes(int(c.U64()))
		if c.Err() != nil {
			return 0, 0, 0, 0, fmt.Errorf("roccom: corrupt IOSet stream at %d: %w", i, c.Err())
		}
	}
	if err := c.End(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("roccom: corrupt IOSet stream: %w", err)
	}
	return n, ndims, nattrs, nameBytes, nil
}
