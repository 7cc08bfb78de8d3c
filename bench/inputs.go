package main

import (
	"fmt"
	"math"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/roccom"
	"genxio/internal/stats"
)

// Everything the program under test receives is generated here from the
// seed: mesh geometry, array contents, and which panes dirty before each
// write. The I/O stack only ever sees the resulting windows.

const windowName = "fluid"

// attrSpecs is the per-pane payload besides the mesh: 64 B per node and
// 8 B per element, so a 4000-node pane is about 300 KB in six datasets.
var attrSpecs = []roccom.AttrSpec{
	{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1},
	{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3},
	{Name: "temperature", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1},
	{Name: "density", Loc: roccom.ElemLoc, Type: hdf.F32, NComp: 1},
	{Name: "flags", Loc: roccom.ElemLoc, Type: hdf.I32, NComp: 1},
}

// shape is the per-client data decomposition: how many panes a client
// owns and the node count each pane's block is generated around. Blocks
// are uniform (no size spread) so state bytes, dataset counts and every
// FS count are the same for every seed; the seed moves only values.
type shape struct {
	Panes int
	Nodes int
}

// paneIDBase keeps the pane IDs of different clients disjoint.
const paneIDBase = 100000

// rankRNG derives the generator of one rank's inputs from the run seed.
func rankRNG(seed uint64, rank int) *stats.RNG {
	return stats.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(rank)*0xbf58476d1ce4e5b9 + 1)
}

// emptyWindow returns a window with the attributes declared and no panes:
// the restart target.
func emptyWindow() (*roccom.Window, error) {
	w, err := roccom.New().NewWindow(windowName)
	if err != nil {
		return nil, err
	}
	for _, s := range attrSpecs {
		if err := w.NewAttribute(s); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// buildWindow generates one client's source window: a ring of sh.Panes
// structured blocks from mesh.GenCylinder with seeded geometry, every
// attribute array filled from the rank's generator.
func buildWindow(sh shape, rank int, rng *stats.RNG) (*roccom.Window, error) {
	w, err := emptyWindow()
	if err != nil {
		return nil, err
	}
	spec := mesh.CylinderSpec{
		RInner: rng.Range(0.4, 0.6), ROuter: rng.Range(1.4, 1.6), Length: rng.Range(1.5, 2.5),
		BR: 1, BT: sh.Panes, BZ: 1, NodesPerBlock: sh.Nodes,
	}
	blocks, err := mesh.GenCylinder(spec, rank*paneIDBase+1, rng)
	if err != nil {
		return nil, err
	}
	for _, b := range blocks {
		p, err := w.RegisterPane(b.ID, b)
		if err != nil {
			return nil, err
		}
		for _, s := range attrSpecs {
			a, _ := p.Array(s.Name)
			fillArray(a, rng)
		}
	}
	return w, nil
}

func fillArray(a *roccom.Array, rng *stats.RNG) {
	for i := range a.F64 {
		a.F64[i] = rng.Range(-1, 1)
	}
	for i := range a.F32 {
		a.F32[i] = float32(rng.Float64())
	}
	for i := range a.I32 {
		a.I32[i] = int32(rng.Intn(1 << 20))
	}
}

// shuffled returns ids in a seeded order (Fisher-Yates).
func shuffled(ids []int, rng *stats.RNG) []int {
	out := append([]int(nil), ids...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// dirtySome is the features workloads' input between two writes: it
// refills one attribute of share of the window's panes (rounded up) and
// marks them dirty. The panes are a window sliding over order, a seeded
// permutation of the pane IDs, advancing by two thirds of its length per
// generation: the seed picks which panes, while how many panes a delta
// chain holds fresh, stale or not at all is the same for every seed —
// consecutive deltas share a third of their panes, so chains carry stale
// copies, and a restart costs the same whatever the seed.
func dirtySome(w *roccom.Window, order []int, gen int, share float64, rng *stats.RNG) {
	n := int(math.Ceil(share * float64(len(order))))
	stride := max(1, 2*n/3)
	for k := 0; k < n; k++ {
		id := order[(gen*stride+k)%len(order)]
		p, _ := w.Pane(id)
		a, _ := p.Array("pressure")
		fillArray(a, rng)
		w.MarkDirty(id)
	}
}

// stateBytes is the logical snapshot size of a window: the payload of
// every dataset write_attribute("all") extracts, delta or not.
func stateBytes(w *roccom.Window) (int64, error) {
	var n int64
	for _, id := range w.PaneIDs() {
		p, _ := w.Pane(id)
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			return 0, err
		}
		for i := range sets {
			n += int64(sets[i].NumBytes())
		}
	}
	return n, nil
}

// Digests. The correctness gate compares what a restart produced with
// what the source windows held, independent of which rank or file a pane
// went through: a pane's digest covers (window, pane, attr, bytes), and a
// window's digest is the wrapping sum over its panes. Every step of mix
// is a bijection of the running value for a fixed input word, so any
// single changed word — any flipped bit — changes the digest. It walks
// the typed slices directly and allocates nothing, so checking between
// timed calls does not disturb the allocation metric.

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

func paneDigest(w *roccom.Window, p *roccom.Pane) uint64 {
	h := mixString(0x6a09e667f3bcc908, w.Name)
	h = mix(h, uint64(p.ID))
	b := p.Block
	h = mix(h, uint64(b.Kind))
	h = mix(h, uint64(b.NI)<<42|uint64(b.NJ)<<21|uint64(b.NK))
	h = mix(h, uint64(b.Level))
	h = mixString(h, "_coords")
	for _, x := range b.Coords {
		h = mix(h, math.Float64bits(x))
	}
	h = mixString(h, "_conn")
	for _, x := range b.Conn {
		h = mix(h, uint64(uint32(x)))
	}
	for _, s := range attrSpecs {
		a, ok := p.Array(s.Name)
		if !ok {
			continue
		}
		h = mixString(h, s.Name)
		for _, x := range a.F64 {
			h = mix(h, math.Float64bits(x))
		}
		for _, x := range a.F32 {
			h = mix(h, uint64(math.Float32bits(x)))
		}
		for _, x := range a.I32 {
			h = mix(h, uint64(uint32(x)))
		}
	}
	return h
}

// windowDigests returns each local pane's digest.
func windowDigests(w *roccom.Window) map[int]uint64 {
	d := make(map[int]uint64, w.NumPanes())
	w.EachPane(func(p *roccom.Pane) { d[p.ID] = paneDigest(w, p) })
	return d
}

// placeholderWindow registers a minimal block under every given pane ID:
// Rochdf's read_attribute restores the panes a window already has, so an
// individual-I/O restart target must name them first.
func placeholderWindow(ids []int) (*roccom.Window, error) {
	w, err := emptyWindow()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		b := &mesh.Block{ID: id, Kind: mesh.Structured, NI: 2, NJ: 2, NK: 2, Coords: make([]float64, 24)}
		if _, err := w.RegisterPane(id, b); err != nil {
			return nil, fmt.Errorf("placeholder pane %d: %w", id, err)
		}
	}
	return w, nil
}
