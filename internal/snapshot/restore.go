package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// Generation is one snapshot base discovered under a directory prefix.
type Generation struct {
	// Base is the generation's base name (restart input for the I/O
	// services).
	Base string
	// Committed reports whether the generation has a manifest — the
	// commit record written last. Uncommitted generations are crash
	// residue and never restart candidates.
	Committed bool
}

// baseOf derives the generation base from a snapshot artifact name:
// base.manifest, base.catalog, a server or rank data file
// (catalog.ParseDataFile), or any of those with a staged .tmp suffix. It returns
// "" for names that are not snapshot artifacts.
func baseOf(name string) string {
	name = strings.TrimSuffix(name, hdf.TmpSuffix)
	if b, ok := strings.CutSuffix(name, Suffix); ok {
		return b
	}
	if b, ok := strings.CutSuffix(name, catalog.Suffix); ok {
		return b
	}
	if b, _, ok := catalog.ParseDataFile(name); ok {
		return b
	}
	return ""
}

// Generations discovers the snapshot generations under prefix (typically
// the run's output directory plus "/"), newest first. Base names must
// order lexically by age — which the zero-padded snap%06d convention
// guarantees — since the epoch lives in the manifest and uncommitted
// generations have none.
func Generations(fsys rt.FS, prefix string) ([]Generation, error) {
	names, err := fsys.List(prefix)
	if err != nil {
		return nil, err
	}
	gens, _ := generations(names)
	return gens, nil
}

// generations is Generations over names, a listing; it also returns the
// listed artifacts of each generation, keyed by base.
func generations(names []string) ([]Generation, map[string][]string) {
	committed := make(map[string]bool)
	files := make(map[string][]string)
	var bases []string
	for _, name := range names {
		b := baseOf(name)
		if b == "" {
			continue
		}
		if _, seen := files[b]; !seen {
			bases = append(bases, b)
		}
		files[b] = append(files[b], name)
		if strings.HasSuffix(name, Suffix) {
			committed[b] = true
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(bases)))
	gens := make([]Generation, len(bases))
	for i, b := range bases {
		gens[i] = Generation{Base: b, Committed: committed[b]}
	}
	return gens, files
}

// step is one move of the restore walk: try the generation under base,
// skip one (err says why), or end the walk (err is the listing failure, if
// that is what ended it). Rank 0 decides each step and broadcasts it, so
// every rank sees the same sequence whatever its own view of the directory.
// A try carries head, the head manifest's bytes as rank 0 read and judged
// them: every rank's Reader takes them as its head read of base while it
// tries it (Reader.head), so no other rank reads that manifest again.
type step struct {
	base string
	head []byte
	err  error
	end  bool
}

// Wire form of a step: a kind byte, then the error text, or for a try the
// base's length (uvarint), the base and the head manifest.
const (
	stepTry = iota
	stepSkip
	stepEnd
)

func (st step) encode() []byte {
	switch {
	case st.end && st.err == nil:
		return []byte{stepEnd}
	case st.end:
		return append([]byte{stepEnd}, st.err.Error()...)
	case st.err != nil:
		return append([]byte{stepSkip}, st.err.Error()...)
	}
	msg := binary.AppendUvarint([]byte{stepTry}, uint64(len(st.base)))
	return append(append(msg, st.base...), st.head...)
}

func decodeStep(msg []byte) step {
	if len(msg) == 0 {
		return step{end: true, err: errors.New("snapshot: empty restore-walk step")}
	}
	switch kind, text := msg[0], msg[1:]; {
	case kind == stepTry:
		n, k := binary.Uvarint(text)
		if k <= 0 || n > uint64(len(text)-k) {
			return step{end: true, err: errors.New("snapshot: malformed restore-walk step")}
		}
		return step{base: string(text[k : k+int(n)]), head: text[k+int(n):]}
	case kind == stepSkip || len(text) > 0:
		return step{err: errors.New(string(text)), end: kind == stepEnd}
	}
	return step{end: true}
}

// walk returns rank 0's side of Restore: a function yielding the walk's
// steps, newest generation first. Verification reads the needed files'
// headers and directories, so one rank does it and shares the verdict. Each
// candidate's chain is the Reader's (chain), loaded from the head manifest
// bytes the step then carries: the one it holds when those bytes are
// unchanged, and otherwise a load it then holds, so the round that restores
// it on the same Reader loads nothing again but the directories it plans
// from that the checks did not load. The chain's catalogs — the file table
// and pane index — then its best copies' file checks (checkFiles, which
// load each directory that passes), go through the Reader's driver as one
// batch each (judge): inline, the paper's serial order; pooled, concurrent,
// each read costed by its bytes. The manifests themselves are read one link
// at a time, each naming the next. The Reader's clock times each judged
// generation.
func (rd *Reader) walk(prefix string) func() step {
	fsys, clock, each := rd.ctx.FS(), rd.ctx.Clock(), rd.reads()
	gens, listErr := Generations(fsys, prefix)
	return func() step {
		if listErr != nil || len(gens) == 0 {
			return step{end: true, err: listErr}
		}
		g := gens[0]
		gens = gens[1:]
		if !g.Committed {
			return step{err: fmt.Errorf("snapshot: %s has no manifest (uncommitted)", g.Base)}
		}
		// A full generation is the chain of length one.
		t0 := clock.Now()
		buf, err := hdf.ReadFile(fsys, g.Base+Suffix)
		rd.given = headRead{base: g.Base, buf: buf, err: err}
		chain, err := rd.chain(g.Base)
		rd.given = headRead{}
		_, err = judge(g.Base, chain, err, each.checkFiles)
		rd.mx.judgeSeconds.Observe(clock.Now() - t0)
		return step{base: g.Base, head: buf, err: err}
	}
}

// Restore walks the generations under prefix newest-first and calls try
// with each restorable base until one attempt succeeds on every rank of
// comm, returning that base. Every rank of comm calls it with the same
// arguments, each on its own Reader; rank 0 alone lists and judges (walk)
// and broadcasts every step, a try with the head manifest it judged, which
// every rank's Reader takes as its head read of base while it tries it. The
// ranks agree on each attempt (mpi.Agree), so a rank whose own try
// succeeded falls past a base a peer's failed and ends the walk with the
// same verdict. Uncommitted generations, generations
// that fail restorable, and generations whose try fails (for example
// ErrIncompleteRestart after a server skipped a checksum-damaged file) are
// fallen past, each counted on the Reader's fallbacks. A failed listing
// ends the walk on every rank.
func (rd *Reader) Restore(comm mpi.Comm, prefix string, try func(base string) error) (string, error) {
	var next func() step
	if comm.Rank() == 0 {
		next = rd.walk(prefix)
	}
	var lastErr error
	for {
		var st step
		if next != nil {
			st = next()
		}
		if msg := comm.Bcast(0, st.encode()); next == nil {
			st = decodeStep(msg)
		}
		if st.end {
			switch {
			case st.err != nil:
				return "", st.err
			case lastErr != nil:
				return "", fmt.Errorf("snapshot: no restorable generation under %q (last: %w)", prefix, lastErr)
			}
			return "", fmt.Errorf("snapshot: no generations under %q", prefix)
		}
		rd.mx.generationsScanned.Inc()
		if st.err == nil {
			rd.given = headRead{base: st.base, buf: st.head}
			err := try(st.base)
			rd.given = headRead{}
			if st.err = mpi.Agree(comm, err); st.err == nil {
				return st.base, nil
			}
		}
		lastErr = st.err
		rd.mx.fallbacks.Inc()
	}
}

// checkOnDisk is checkFile of the file as it is on disk now: one
// hdf.ReadRawDir, header and directory bytes only, none of them decoded — a
// file that matches its entry has the directory its commit walked. The
// scrub checks a file with it; the restore walk reads the same bytes as a
// batch (checkFiles) and checks them the same way. ReadData's per-dataset
// CRCs (and Fsck's deep scrub) cover the payload bytes.
func checkOnDisk(fsys rt.FS, e FileEntry) error {
	d, err := hdf.ReadRawDir(fsys, e.Name)
	if err != nil {
		return err
	}
	return checkFile(e, FileEntry{Size: d.Size, DirCRC: hdf.Checksum(d.Bytes), Datasets: d.Count})
}
