package snapshot

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// opLog is an rt.FS that logs, while on, each Create, WriteAt, Close,
// Rename and Remove as "op name".
type opLog struct {
	rt.FS
	mu  sync.Mutex
	on  bool
	ops []string
}

func (l *opLog) setOn(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = on
}

func (l *opLog) log(op, name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.on {
		l.ops = append(l.ops, op+" "+name)
	}
}

func (l *opLog) Create(name string) (rt.File, error) {
	f, err := l.FS.Create(name)
	l.log("create", name)
	if err != nil {
		return f, err
	}
	return &opFile{File: f, l: l, name: name}, nil
}

func (l *opLog) Rename(from, to string) error {
	l.log("rename", from)
	return l.FS.Rename(from, to)
}

func (l *opLog) Remove(name string) error {
	l.log("remove", name)
	return l.FS.Remove(name)
}

type opFile struct {
	rt.File
	l    *opLog
	name string
}

func (f *opFile) WriteAt(b []byte, off int64) (int, error) {
	f.l.log("write", f.name)
	return f.File.WriteAt(b, off)
}

func (f *opFile) Close() error {
	f.l.log("close", f.name)
	return f.File.Close()
}

// TestCommitPublishesOneRecord: rank 0's commit of each generation makes
// one publish — one Create, WriteAt, Close and Rename, of base.manifest's
// staged name — and creates no .catalog file; and a prune removes each
// generation's record before any of its data files. Two ranks commit five
// generations (a full one, two deltas on it, two full ones) at retain 2.
func TestCommitPublishesOneRecord(t *testing.T) {
	mem := rt.NewMemFS()
	log := &opLog{FS: mem}
	err := mpi.NewChanWorld(mem, 1).Run(2, func(ctx mpi.Ctx) error {
		fsys := ctx.FS()
		if ctx.Comm().Rank() == 0 {
			fsys = log
		}
		p := NewPending(ctx.Comm(), fsys, ctx.Clock(), 2, nil)
		for i, g := range []genSpec{full("out/snap000000"), delta("out/snap000001", "out/snap000000", 1),
			delta("out/snap000002", "out/snap000001", 2), full("out/snap000003"), full("out/snap000004")} {
			var pubs []catalog.Report
			if ctx.Comm().Rank() == 0 {
				pubs = g.write(t, mem, float64(i))
				log.setOn(true)
			}
			p.Begin(g.base, int64(i), float64(i))
			err := p.Commit(nil, pubs, func(*PendingGen) *ChainInfo { return g.chain() })
			if ctx.Comm().Rank() == 0 {
				log.setOn(false)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	record := func(base string) []string {
		staged := base + Suffix + ".tmp"
		return []string{"create " + staged, "write " + staged, "close " + staged, "rename " + staged}
	}
	var commits []string
	for _, op := range log.ops {
		if strings.HasSuffix(op, ".catalog") || strings.HasSuffix(op, ".catalog.tmp") {
			t.Fatalf("the commit touched a catalog file: %q", op)
		}
		if !strings.HasPrefix(op, "remove ") {
			commits = append(commits, op)
		}
	}
	var want []string
	for i := range 5 {
		want = append(want, record(fmt.Sprintf("out/snap%06d", i))...)
	}
	if !slices.Equal(commits, want) {
		t.Fatalf("the commits made\n%s\nwant one publish of each record:\n%s", strings.Join(commits, "\n"), strings.Join(want, "\n"))
	}
	// The prune at the last commit removes generations 0 to 2, pinned
	// until then by the delta kept at the commit before.
	removed := map[string]bool{}
	for _, op := range log.ops {
		name, ok := strings.CutPrefix(op, "remove ")
		if !ok {
			continue
		}
		base := baseOf(name)
		if !removed[base] && name != base+Suffix {
			t.Fatalf("the prune removed %s before %s's record", name, base)
		}
		removed[base] = true
	}
	if len(removed) == 0 {
		t.Fatal("the prune removed nothing")
	}
}
