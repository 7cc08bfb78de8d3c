// Package rt defines the platform abstraction the I/O libraries are written
// against: a clock for timing and charging computation, and a filesystem
// for storing bytes. The same Rocpanda/Rochdf code runs on the real
// backends in this package (wall clock, OS or in-memory files) and on the
// simulated platforms in internal/cluster and internal/fssim, which charge
// virtual time for every operation.
package rt

import (
	"errors"
	"io"
	"time"
)

// Clock abstracts time for a single process (rank).
type Clock interface {
	// Now returns seconds since the start of the run.
	Now() float64
	// Compute charges d seconds of CPU work to this process. On real
	// backends the work is the code actually running, so Compute is a
	// no-op; on simulated platforms it advances virtual time and is
	// subject to the platform's CPU and OS-noise model.
	Compute(d float64)
}

// File is an open file. Implementations are not required to be safe for
// concurrent use by multiple processes; each rank opens its own handle.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
	// Truncate changes the file length.
	Truncate(size int64) error
}

// FS abstracts a filesystem as seen by a single process. Simulated
// filesystems bind a per-rank view so operations can charge virtual time to
// the calling process.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading (and writing, if supported).
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname. It is the commit
	// primitive of the durable-snapshot protocol: writers emit to a temp
	// name and Rename it into place once complete.
	Rename(oldname, newname string) error
	// List returns the names of all files whose name starts with prefix,
	// in lexical order.
	List(prefix string) ([]string, error)
	// Stat returns the size of the named file.
	Stat(name string) (int64, error)
}

// ErrNotExist is returned when a named file does not exist.
var ErrNotExist = errors.New("rt: file does not exist")

// WallClock is the real-time Clock: Now measures wall time since the
// WallClock was created and Compute is free (the caller's code is the
// work).
type WallClock struct {
	start time.Time
}

// NewWallClock returns a Clock anchored at the current instant.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() float64 { return time.Since(w.start).Seconds() }

// Compute implements Clock. Real computation is performed by the caller's
// own code, so charging is a no-op.
func (w *WallClock) Compute(d float64) {}
