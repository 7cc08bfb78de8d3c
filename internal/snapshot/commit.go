package snapshot

import (
	"errors"
	"fmt"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// ErrDrainFailed reports that some process could not land all of its
// snapshot output (a block write or file close failed). Every rank of the
// commit's agreement surfaces it — one failure spreads to all — and the
// affected generations get no commit record.
var ErrDrainFailed = errors.New("snapshot: output did not reach the filesystem")

// ErrCommitFailed reports that every rank's output landed but rank 0 could
// not write the commit records (or prune after them). Rank 0 returns its own
// error; every other rank learns of it from the commit's closing agreement
// and returns this, wrapping mpi.ErrPeerFailed.
var ErrCommitFailed = errors.New("snapshot: commit failed")

// PendingGen is one generation written since the last commit, awaiting its
// commit record.
type PendingGen struct {
	Base  string
	Epoch int64
	Time  float64
	// Delta marks a generation that shipped only dirty panes, and Panes is
	// then the writing rank's local pane universe per window — every
	// registered pane, shipped or not, so the committed record can carry
	// the generation's true pane set (a clean pane still exists; a
	// refinement-deleted one must not resurrect from the chain's base). Set
	// by the module that began the generation; zero for full generations.
	Delta bool
	Panes map[string][]int
}

// Pending is the commit protocol every I/O module ends a sync with: the
// generations written since the last commit, in write order, and the
// collective routine that turns them into commit records. Writes are collective,
// so every rank of comm accumulates the same list.
type Pending struct {
	comm      mpi.Comm
	fs        rt.FS
	clock     rt.Clock
	retain    int
	gens      []*PendingGen    // few: what was written since the last sync
	published []catalog.Report // what this rank's writers reported since the last commit
	// records is rank 0's commit records of the generations it committed
	// (or its prunes read) that retention still keeps — without retention,
	// of the last generation it committed — so a delta on one of them, and
	// a prune, need not read it.
	records       map[string]*Manifest
	dirsRead      *metrics.Counter
	recordBytes   *metrics.Counter
	recordsRead   *metrics.Counter
	commitSeconds *metrics.Histogram
}

// NewPending returns the calling rank's end of the protocol over comm.
// retain > 0 prunes all but the newest retain generations after each commit.
// reg receives snapshot.commit.dirs_read, the directories a commit had to
// read off the filesystem because no writer reported them,
// snapshot.commit.record_bytes, the commit record bytes its commits wrote,
// snapshot.prune.records_read, the records a prune had to read because no
// commit of this Pending wrote them, and snapshot.commit_seconds, the time
// on clock rank 0 spent committing each generation (its record, from the
// reports to the rename).
func NewPending(comm mpi.Comm, fs rt.FS, clock rt.Clock, retain int, reg *metrics.Registry) *Pending {
	return &Pending{comm: comm, fs: fs, clock: clock, retain: retain, records: make(map[string]*Manifest),
		dirsRead: reg.Counter("snapshot.commit.dirs_read"), recordBytes: reg.Counter("snapshot.commit.record_bytes"),
		recordsRead:   reg.Counter("snapshot.prune.records_read"),
		commitSeconds: reg.Histogram("snapshot.commit_seconds", nil)}
}

// Begin returns the pending generation under base, adding it (fresh) on the
// first write into it since the last commit.
func (p *Pending) Begin(base string, epoch int64, tm float64) (g *PendingGen, fresh bool) {
	for _, have := range p.gens {
		if have.Base == base {
			return have, false
		}
	}
	g = &PendingGen{Base: base, Epoch: epoch, Time: tm}
	p.gens = append(p.gens, g)
	return g, true
}

// Commit is the collective end of a sync or shutdown. flushErr is what this
// rank's flush barrier reported; the agreement over it (mpi.Agree) doubles
// as the barrier that guarantees every rank's output is on disk, and if any
// rank failed no commit record may be written: every rank returns an error (its
// own, or ErrDrainFailed wrapping mpi.ErrPeerFailed for a peer's) and the
// generations stay pending, with what was published. Otherwise the pending
// generations commit. published is what this rank's write service reported
// publishing since it last handed reports out (Writer.Published, or a
// Rocpanda server's ack); every rank's reach rank 0, which indexes the
// files from them. chain, when non-nil, is called on every rank for each
// generation in order just before its commit — it may be collective — and
// returns, on rank 0, the chain facts of a delta generation.
func (p *Pending) Commit(flushErr error, published []catalog.Report, chain func(*PendingGen) *ChainInfo) error {
	p.published = append(p.published, published...)
	err := mpi.Agree(p.comm, flushErr)
	switch {
	case flushErr != nil:
		return flushErr
	case err != nil:
		return fmt.Errorf("%w: %w", ErrDrainFailed, err)
	}
	return p.commitPending(chain)
}

// commitPending writes the commit record of every pending generation (rank
// 0 only; the others wait), then prunes old generations if retention is
// configured. Callers must have established that every rank's output is on
// disk. Rank 0 lists each generation prefix once; the commits index their
// files from that listing and the prune works from it plus the records the
// commits wrote. When a report could not be gathered rank 0 commits nothing
// — every rank's Sync fails, so no record may appear. The closing agreement
// on the outcome (mpi.Agree) is also a barrier: no rank races ahead — e.g.
// into a record-driven restore — before the commit records exist, and when
// rank 0 failed every rank returns an error.
func (p *Pending) commitPending(chain func(*PendingGen) *ChainInfo) error {
	reported, err := p.gatherPublished()
	var listed map[string][]string // generation prefix → its listing
	if err == nil && p.comm.Rank() == 0 {
		listed, err = p.list()
	}
	commits := err == nil && p.comm.Rank() == 0
	for _, g := range p.gens {
		var ci *ChainInfo
		if chain != nil {
			ci = chain(g) // collective: every rank calls it, committing or not
		}
		if !commits {
			continue
		}
		prefix := genPrefix(g.Base)
		t0 := p.clock.Now()
		m, cerr := commit(p.fs, g.Base, g.Epoch, g.Time, ci, p.records, listed[prefix], reported, p.dirsRead)
		p.commitSeconds.Observe(p.clock.Now() - t0)
		if cerr != nil {
			if err == nil {
				err = cerr
			}
			continue
		}
		p.recordBytes.Add(m.Size)
		listed[prefix] = afterCommit(listed[prefix], g.Base)
		if p.retain <= 0 {
			clear(p.records)
		}
		p.records[g.Base] = m
	}
	if err == nil && commits && p.retain > 0 && len(p.gens) > 0 {
		prefix := genPrefix(p.gens[len(p.gens)-1].Base)
		if _, err = prune(p.fs, listed[prefix], p.retain, p.records, p.recordsRead); err != nil {
			err = fmt.Errorf("snapshot: prune %s: %w", prefix, err)
		}
	}
	p.gens, p.published = nil, nil
	if aerr := mpi.Agree(p.comm, err); err == nil && aerr != nil {
		err = fmt.Errorf("%w: %w", ErrCommitFailed, aerr)
	}
	return err
}

// list lists each distinct prefix of the pending generations once.
func (p *Pending) list() (map[string][]string, error) {
	listed := make(map[string][]string, 1)
	for _, g := range p.gens {
		prefix := genPrefix(g.Base)
		if _, ok := listed[prefix]; ok {
			continue
		}
		names, err := p.fs.List(prefix)
		if err != nil {
			return nil, fmt.Errorf("snapshot: commit %s: %w", g.Base, err)
		}
		listed[prefix] = names
	}
	return listed, nil
}

// afterCommit returns names, a listing taken before base's commit, as the
// commit left it: base's record exists, renamed over its staged name.
func afterCommit(names []string, base string) []string {
	rec := base + Suffix
	out := names[:0]
	for _, name := range names {
		if name != rec && name != rec+hdf.TmpSuffix {
			out = append(out, name)
		}
	}
	return append(out, rec)
}

// gatherPublished collects every rank's reports on rank 0 (nil elsewhere),
// keyed by file: the others ship theirs in their wire form
// (catalog.AppendReports), rank 0 keeps its own. Of two reports of one file
// the larger wins: a reopen or an append republishes a file past its old
// end, so the latest is the largest.
func (p *Pending) gatherPublished() (map[string]catalog.Report, error) {
	if p.comm.Rank() != 0 {
		p.comm.Gather(0, catalog.AppendReports(nil, p.published))
		return nil, nil
	}
	parts := p.comm.Gather(0)
	reported := make(map[string]catalog.Report)
	add := func(rs []catalog.Report) {
		for _, r := range rs {
			if have, ok := reported[r.Name]; !ok || r.Size > have.Size {
				reported[r.Name] = r
			}
		}
	}
	add(p.published)
	for _, part := range parts[1:] {
		ps, err := catalog.DecodeReports(part)
		if err != nil {
			return nil, fmt.Errorf("snapshot: commit: %w", err)
		}
		add(ps)
	}
	return reported, nil
}

// genPrefix returns the directory prefix shared by a base's generations.
func genPrefix(base string) string {
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		return base[:i+1]
	}
	return ""
}
