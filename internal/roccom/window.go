// Package roccom implements the paper's component-integration framework:
// modules organize distributed data into windows partitioned into panes
// (one pane = one data block, owned by a single process), declare typed
// attributes on windows, register functions for dynamic dispatch, and load
// interchangeable service modules (Rocpanda or Rochdf) behind a uniform
// high-level parallel I/O interface of three collective operations:
// read_attribute, write_attribute, and sync.
package roccom

import (
	"fmt"
	"sort"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
)

// Location says what mesh entity an attribute lives on, in Roccom's
// notation: 'n' node-centered, 'e' element-centered, 'p' pane-level.
type Location byte

// Attribute locations.
const (
	NodeLoc Location = 'n'
	ElemLoc Location = 'e'
	PaneLoc Location = 'p'
)

// AttrSpec declares a window attribute: its name, where it lives, its
// element type, and the number of components per entity (e.g. velocity is
// a node-centered float64 attribute with 3 components).
type AttrSpec struct {
	Name  string
	Loc   Location
	Type  hdf.DType
	NComp int
}

func (s AttrSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("roccom: attribute with empty name")
	}
	switch s.Loc {
	case NodeLoc, ElemLoc, PaneLoc:
	default:
		return fmt.Errorf("roccom: attribute %q has invalid location %q", s.Name, s.Loc)
	}
	switch s.Type {
	case hdf.F64, hdf.F32, hdf.I32:
	default:
		return fmt.Errorf("roccom: attribute %q has unsupported type %v", s.Name, s.Type)
	}
	if s.NComp < 1 {
		return fmt.Errorf("roccom: attribute %q has %d components", s.Name, s.NComp)
	}
	return nil
}

// items returns the entity count for this location on block b.
func (s AttrSpec) items(b *mesh.Block) int {
	switch s.Loc {
	case NodeLoc:
		return b.NumNodes()
	case ElemLoc:
		return b.NumElems()
	default:
		return 1
	}
}

// Array is the storage of one attribute on one pane. Exactly one of the
// typed slices is non-nil, matching Spec.Type.
type Array struct {
	Spec AttrSpec
	F64  []float64
	F32  []float32
	I32  []int32
}

func newArray(spec AttrSpec, items int) *Array {
	a := &Array{Spec: spec}
	n := items * spec.NComp
	switch spec.Type {
	case hdf.F64:
		a.F64 = make([]float64, n)
	case hdf.F32:
		a.F32 = make([]float32, n)
	case hdf.I32:
		a.I32 = make([]int32, n)
	}
	return a
}

// Len returns the total number of elements (items × components).
func (a *Array) Len() int {
	switch a.Spec.Type {
	case hdf.F64:
		return len(a.F64)
	case hdf.F32:
		return len(a.F32)
	default:
		return len(a.I32)
	}
}

// Bytes returns the array as little-endian bytes for file or wire: a view of
// its storage on little-endian hosts (see PaneIOSets for how long it holds).
func (a *Array) Bytes() []byte {
	switch a.Spec.Type {
	case hdf.F64:
		return f64View(a.F64)
	case hdf.F32:
		return f32View(a.F32)
	default:
		return i32View(a.I32)
	}
}

// SetBytes copies little-endian bytes into the array; the byte count must
// match the array's size.
func (a *Array) SetBytes(b []byte) error {
	want := a.Len() * a.Spec.Type.Size()
	if len(b) != want {
		return fmt.Errorf("roccom: attribute %q expects %d bytes, got %d", a.Spec.Name, want, len(b))
	}
	if littleEndian {
		copy(a.Bytes(), b)
		return nil
	}
	switch a.Spec.Type {
	case hdf.F64:
		copy(a.F64, hdf.BytesF64(b))
	case hdf.F32:
		copy(a.F32, hdf.BytesF32(b))
	default:
		copy(a.I32, hdf.BytesI32(b))
	}
	return nil
}

// Pane is one data block registered in a window: a mesh block plus the
// window's attributes sized for that block. A pane is owned by exactly one
// process; a process may own any number of panes.
type Pane struct {
	ID     int
	Block  *mesh.Block
	arrays map[string]*Array
	// dirty is the window dirty-sequence value at the pane's last
	// mutation. A freshly registered pane is dirty; delta snapshots
	// compare it against the epoch last shipped to decide whether the
	// pane must ride the next generation.
	dirty uint64
}

// Array returns the pane's storage for the named attribute.
func (p *Pane) Array(name string) (*Array, bool) {
	a, ok := p.arrays[name]
	return a, ok
}

// F64 returns the float64 data of the named attribute, or nil.
func (p *Pane) F64(name string) []float64 {
	if a, ok := p.arrays[name]; ok {
		return a.F64
	}
	return nil
}

// Window is a distributed object holding panes and attribute declarations.
// All panes of a window have the same collection of attributes, though the
// size of each attribute varies with the pane's mesh block.
type Window struct {
	Name  string
	specs []AttrSpec
	byNam map[string]int
	panes map[int]*Pane
	// dirtySeq is a monotonic per-window mutation counter. Each MarkDirty
	// (or MarkAllDirty) bump stamps the touched panes with a value greater
	// than any epoch shipped before it, so delta snapshots never miss a
	// mutation that races ahead of the next write.
	dirtySeq uint64
}

func newWindow(name string) *Window {
	return &Window{Name: name, byNam: make(map[string]int), panes: make(map[int]*Pane)}
}

// NewAttribute declares an attribute on the window and allocates storage
// for it on every already-registered pane.
func (w *Window) NewAttribute(spec AttrSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if _, dup := w.byNam[spec.Name]; dup {
		return fmt.Errorf("roccom: window %q already has attribute %q", w.Name, spec.Name)
	}
	w.byNam[spec.Name] = len(w.specs)
	w.specs = append(w.specs, spec)
	for _, p := range w.panes {
		p.arrays[spec.Name] = newArray(spec, spec.items(p.Block))
	}
	return nil
}

// Attributes returns the declared attribute specs in declaration order.
func (w *Window) Attributes() []AttrSpec {
	return append([]AttrSpec(nil), w.specs...)
}

// Attribute returns the spec of the named attribute.
func (w *Window) Attribute(name string) (AttrSpec, bool) {
	i, ok := w.byNam[name]
	if !ok {
		return AttrSpec{}, false
	}
	return w.specs[i], true
}

// RegisterPane registers a mesh block as a pane with a window-unique ID and
// allocates storage for every declared attribute. It returns the new pane.
func (w *Window) RegisterPane(id int, b *mesh.Block) (*Pane, error) {
	if b == nil {
		return nil, fmt.Errorf("roccom: nil block for pane %d", id)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if _, dup := w.panes[id]; dup {
		return nil, fmt.Errorf("roccom: window %q already has pane %d", w.Name, id)
	}
	w.dirtySeq++
	p := &Pane{ID: id, Block: b, arrays: make(map[string]*Array, len(w.specs)), dirty: w.dirtySeq}
	for _, spec := range w.specs {
		p.arrays[spec.Name] = newArray(spec, spec.items(b))
	}
	w.panes[id] = p
	return p, nil
}

// DeletePane removes a pane (e.g. when refinement replaces it).
func (w *Window) DeletePane(id int) error {
	if _, ok := w.panes[id]; !ok {
		return fmt.Errorf("roccom: window %q has no pane %d", w.Name, id)
	}
	delete(w.panes, id)
	return nil
}

// Pane returns the pane with the given ID.
func (w *Window) Pane(id int) (*Pane, bool) {
	p, ok := w.panes[id]
	return p, ok
}

// PaneIDs returns the IDs of all local panes in ascending order.
func (w *Window) PaneIDs() []int {
	ids := make([]int, 0, len(w.panes))
	for id := range w.panes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// NumPanes returns the number of locally registered panes.
func (w *Window) NumPanes() int { return len(w.panes) }

// EachPane calls fn for every local pane in ascending ID order.
func (w *Window) EachPane(fn func(*Pane)) {
	for _, id := range w.PaneIDs() {
		fn(w.panes[id])
	}
}

// MarkDirty stamps one pane with a fresh mutation epoch. Solvers (via
// rocman) call it after writing attribute data so delta snapshots know
// the pane must ride the next generation. Unknown IDs are ignored.
func (w *Window) MarkDirty(id int) {
	p, ok := w.panes[id]
	if !ok {
		return
	}
	w.dirtySeq++
	p.dirty = w.dirtySeq
}

// MarkAllDirty stamps every local pane with one fresh mutation epoch —
// the collective form solvers use after a real-arithmetic step touches
// the whole window.
func (w *Window) MarkAllDirty() {
	w.dirtySeq++
	for _, p := range w.panes {
		p.dirty = w.dirtySeq
	}
}

// DirtyEpoch returns the pane's mutation epoch: the window dirty-sequence
// value at its last MarkDirty (or registration). Zero is never a valid
// epoch for a live pane, so it doubles as the "unknown pane" answer.
func (w *Window) DirtyEpoch(id int) uint64 {
	if p, ok := w.panes[id]; ok {
		return p.dirty
	}
	return 0
}
