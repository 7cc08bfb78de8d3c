package rt

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory filesystem, safe for concurrent use by multiple
// goroutine ranks. It is the real backend for tests and also the byte store
// underneath the simulated filesystems in internal/fssim.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
}

// memNode is one file's bytes in pages that are allocated where first
// written and never move, so a file grows without recopying what it holds.
// Pages double from 1<<minPageShift bytes to 1<<maxPageShift and stay at
// that size, so a small file stays small. A nil page is a hole and reads as
// zeros; every allocated byte at or past size is zero, so Truncate and
// sparse writes read back zeros as on a real filesystem.
type memNode struct {
	mu    sync.Mutex
	pages [][]byte
	size  int64
}

const (
	minPageShift = 9  // the first page: 512 B
	maxPageShift = 16 // the largest page: 64 KiB
	// The doubling pages, up to and including the first largest one, and
	// the bytes they hold together.
	doublingPages = maxPageShift - minPageShift + 1
	doublingBytes = 1<<(maxPageShift+1) - 1<<minPageShift
)

// pageOf maps a file offset to its page and the offset within that page.
func pageOf(off int64) (page int, in int64) {
	if off < doublingBytes {
		page = bits.Len64(uint64(off>>minPageShift+1)) - 1
		return page, off - (1<<page-1)<<minPageShift
	}
	off -= doublingBytes
	return doublingPages + int(off>>maxPageShift), off & (1<<maxPageShift - 1)
}

// pageSize is the length of page i.
func pageSize(i int) int64 { return 1 << min(minPageShift+i, maxPageShift) }

// each calls fn for every page piece of [off, off+n), in order: the page
// index, the offset within it, and the piece's length.
func each(off, n int64, fn func(page int, in, k int64)) {
	for end := off + n; off < end; {
		page, in := pageOf(off)
		k := min(pageSize(page)-in, end-off)
		fn(page, in, k)
		off += k
	}
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode)}
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &memNode{}
	m.files[name] = n
	return &memFile{name: name, node: n}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &memFile{name: name, node: n}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	m.files[newname] = n
	delete(m.files, oldname)
	return nil
}

// List implements FS.
func (m *MemFS) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (int64, error) {
	m.mu.Lock()
	n, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size, nil
}

type memFile struct {
	name string
	node *memNode
}

func (f *memFile) Name() string { return f.name }

// ReadAt follows os.File.ReadAt: a read that ends past EOF returns what
// there was and io.EOF, and an empty read succeeds wherever it starts.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	n := f.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= n.size {
		return 0, io.EOF
	}
	got := min(int64(len(p)), n.size-off)
	each(off, got, func(page int, in, k int64) {
		dst := p[:k]
		if page < len(n.pages) && n.pages[page] != nil {
			copy(dst, n.pages[page][in:])
		} else {
			clear(dst)
		}
		p = p[k:]
	})
	if len(p) > 0 {
		return int(got), io.EOF
	}
	return int(got), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	n := f.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	wrote := len(p)
	each(off, int64(len(p)), func(page int, in, k int64) {
		for len(n.pages) <= page {
			n.pages = append(n.pages, nil)
		}
		if n.pages[page] == nil {
			n.pages[page] = make([]byte, pageSize(page))
		}
		copy(n.pages[page][in:], p[:k])
		p = p[k:]
	})
	n.size = max(n.size, off+int64(wrote))
	return wrote, nil
}

func (f *memFile) Size() (int64, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return f.node.size, nil
}

func (f *memFile) Truncate(size int64) error {
	n := f.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("memfs: negative truncate size %d", size)
	}
	if size < n.size {
		// Drop the pages past the cut and zero the cut page's tail, so a
		// later extension reads back zeros.
		page, in := pageOf(size)
		if in > 0 {
			if page < len(n.pages) && n.pages[page] != nil {
				clear(n.pages[page][in:])
			}
			page++
		}
		if page < len(n.pages) {
			clear(n.pages[page:])
			n.pages = n.pages[:page]
		}
	}
	n.size = size
	return nil
}

func (f *memFile) Close() error { return nil }
