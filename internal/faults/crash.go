package faults

import (
	"fmt"
	"sync"
)

// CrashPoint names an instrumented point of the Rocpanda server loop at
// which a CrashPlan can kill the process.
type CrashPoint string

// Server crash points.
const (
	// MidBuffer fires after the server has buffered a data block under
	// active buffering, before the client's write is acknowledged: data
	// is in volatile memory only and the client does not know whether the
	// write landed.
	MidBuffer CrashPoint = "mid-buffer"
	// MidDrain fires after the background drain has written a block to
	// the snapshot file: the file is a staged temporary no reader opens,
	// unless the step ended a whole write and published the file, whole,
	// under its final name.
	MidDrain CrashPoint = "mid-drain"
	// BeforeMeta fires when a snapshot file has been created but before
	// its _meta dataset is written — the earliest possible on-disk state
	// of a snapshot.
	BeforeMeta CrashPoint = "before-meta"
	// AtSync fires when a client's sync request reaches the server, before
	// the flush it asks for: the drained blocks are on disk, each file
	// whose whole write the drain has passed is published under its final
	// name, and any other stays a staged temporary.
	AtSync CrashPoint = "at-sync"
	// MidRead fires while the server is serving a restart round, after it
	// has read (and possibly shipped) some of its file share but before
	// the round's done notifications: clients must detect the silence,
	// declare the server dead, and recover — from the survivors or by
	// falling back a generation.
	MidRead CrashPoint = "mid-read"
)

// CrashPlan kills one Rocpanda server at the Nth visit of a crash point.
// Counters are per (server, point), so the crash fires at the same
// operation index on every run with the same plan: deterministic fault
// injection in the only sense available to a concurrent system — the dying
// server has always done exactly the same amount of work when it dies.
type CrashPlan struct {
	// Server is the index (not world rank) of the server to kill.
	Server int
	// Point is the instrumented point to die at.
	Point CrashPoint
	// Nth dies on the n-th visit (1-based) of Point; 0 means the first.
	Nth int

	tripLog
	mu       sync.Mutex
	counters map[string]int
	fired    bool
}

// NewCrashPlan returns a plan killing server idx at the nth visit of point.
func NewCrashPlan(server int, point CrashPoint, nth int) *CrashPlan {
	return &CrashPlan{Server: server, Point: point, Nth: nth}
}

// Hit reports whether the calling server should die now. It returns true
// exactly once.
func (p *CrashPlan) Hit(server int, point CrashPoint) bool {
	if p == nil || server != p.Server || point != p.Point {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired {
		return false
	}
	if p.counters == nil {
		p.counters = make(map[string]int)
	}
	key := fmt.Sprintf("crash:%d:%s", server, point)
	p.counters[key]++
	nth := p.Nth
	if nth <= 0 {
		nth = 1
	}
	if p.counters[key] != nth {
		return false
	}
	p.fired = true
	p.record(key, p.counters[key])
	return true
}

// Fired reports whether the crash has happened.
func (p *CrashPlan) Fired() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}
