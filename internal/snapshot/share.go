package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/mpi"
)

// tagDirs is the tag of the directories peers send each other
// (shareDirs).
const tagDirs = 2200

// peerDir is one directory some peer lacks: its file, its
// length, the peers that lack it and those that hold it loaded, and the
// peer dealt to send it.
type peerDir struct {
	name       string
	len        int64
	lack, hold []int
	from       int
}

// ShareDirs is a collective of peers, ranks that have dealt the panes of
// window in the committed generation under base among themselves, each
// passing its own part (Rochdf's PanesForRestart): it loads into each
// rank's chain the directories its part plans from (Catalog.Sources after
// resolution, as a round's planFrom), each read once among the ranks
// (shareDirs), so the rounds that read those panes next read none. Every
// rank of peers calls it, whatever its part; one without a loadable chain
// loads nothing. A directory that does not load here is read again by the
// round that needs it, and fails there.
func (rd *Reader) ShareDirs(peers mpi.Comm, base, window string, panes []int) {
	if peers.Size() == 1 {
		return
	}
	chain, err := rd.chain(base)
	var loads []dirLoad
	if err == nil {
		wanted := make(map[int]bool, len(panes))
		for _, id := range panes {
			wanted[id] = true
		}
		assign := catalog.ResolvePanes(ChainCatalogs(chain), window, wanted)
		for gi, g := range chain {
			srcs, _ := g.Catalog.Sources(window, assign[gi], nil)
			loads = append(loads, lacking(g, srcs)...)
		}
	}
	rd.shareDirs(peers, rd.reads(), chain, loads)
}

// shareDirs loads loads, the directories of links this peer lacks, as
// loadDirs does, each read once among peers. The peers tell each other, in
// one gather and one broadcast, the directories of links each lacks and
// those each holds. Each lacking directory is dealt, largest first, to the
// peer with the fewest bytes dealt so far among those that hold it, or else
// among those that lack it, which reads it as loadDirs does; the dealt peer
// sends it to every other peer that lacks it. A received directory is
// loaded as a read one is (dirLoad.load, held to its DirCRC); one that did
// not read or load on its sender comes as a failure, and stays unloaded.
func (rd *Reader) shareDirs(peers mpi.Comm, each reads, links []ChainGen, loads []dirLoad) {
	me, n := peers.Rank(), peers.Size()
	// What this peer lacks and what it holds, on the wire: per directory
	// whether it lacks it, the file's name and the directory's length.
	var msg []byte
	tell := func(lacks byte, name string, n int64) {
		msg = binary.LittleEndian.AppendUint64(hdf.AppendStr(append(msg, lacks), name), uint64(n))
	}
	for _, l := range loads {
		tell(1, l.e.Name, l.cat.DirLen(l.f))
	}
	held := make(map[string][]byte)
	for _, g := range links {
		for f, name := range g.Catalog.Files {
			if b := g.Catalog.Dir(f); b != nil && g.Manifest != nil {
				held[name] = b
				tell(0, name, int64(len(b)))
			}
		}
	}
	var all []byte
	if parts := peers.Gather(0, msg); me == 0 {
		for _, p := range parts {
			all = append(binary.LittleEndian.AppendUint32(all, uint32(len(p))), p...)
		}
	}
	dirs, err := dealDirs(peers.Bcast(0, all), n)
	if err != nil { // every peer decoded the same bytes: none reads or sends
		return
	}

	// Read what is dealt to this peer and lacking here, then send what it
	// is dealt, then receive the rest, all in the deal's order.
	mine := make(map[string]int, len(loads))
	for i, l := range loads {
		mine[l.e.Name] = i
	}
	var reads []dirLoad
	for _, d := range dirs {
		if i, ok := mine[d.name]; ok && d.from == me {
			reads = append(reads, loads[i])
		}
	}
	loadDirs(each, reads, rd.mx.dirBytes)
	for _, d := range dirs {
		if d.from != me {
			continue
		}
		b := held[d.name]
		if i, ok := mine[d.name]; ok {
			b = loads[i].cat.Dir(loads[i].f) // nil: it did not load
		}
		for _, to := range d.lack {
			if to == me {
				continue
			}
			if b == nil {
				peers.Send(to, tagDirs, []byte{0})
			} else {
				peers.Send(to, tagDirs, []byte{1}, b)
			}
		}
	}
	for _, d := range dirs {
		i, ok := mine[d.name]
		if !ok || d.from == me {
			continue
		}
		if got, _ := peers.Recv(d.from, tagDirs); len(got) > 0 && got[0] == 1 {
			loads[i].load(got[1:])
		}
	}
}

// dealDirs decodes the peers' messages as shareDirs' broadcast carries them
// and deals every lacking directory: the same deal on every peer.
func dealDirs(all []byte, n int) ([]*peerDir, error) {
	byName := make(map[string]*peerDir)
	var dirs []*peerDir
	holds := make([][]string, n)
	c := hdf.NewCursor(all)
	for p := 0; p < n; p++ {
		part := c.Bytes(int(c.U32()))
		m := hdf.NewCursor(part)
		for m.Err() == nil && m.Offset() < len(part) {
			lacks, name, dirLen := m.U8(), m.Str(), int64(m.U64())
			if lacks == 0 {
				holds[p] = append(holds[p], name)
				continue
			}
			d := byName[name]
			if d == nil {
				d = &peerDir{name: name, len: dirLen}
				byName[name] = d
				dirs = append(dirs, d)
			}
			d.lack = append(d.lack, p)
		}
		if err := m.End(); err != nil {
			return nil, fmt.Errorf("snapshot: peer %d's directories: %w", p, err)
		}
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("snapshot: the peers' directories: %w", err)
	}
	for p, hold := range holds {
		for _, name := range hold {
			if d := byName[name]; d != nil {
				d.hold = append(d.hold, p)
			}
		}
	}
	slices.SortFunc(dirs, func(a, b *peerDir) int { return cmp.Or(cmp.Compare(b.len, a.len), cmp.Compare(a.name, b.name)) })
	dealt := make([]int64, n)
	for _, d := range dirs {
		from := d.hold
		if len(from) == 0 {
			from = d.lack
		}
		d.from = from[0]
		for _, p := range from[1:] {
			if dealt[p] < dealt[d.from] {
				d.from = p
			}
		}
		dealt[d.from] += d.len
	}
	return dirs, nil
}
