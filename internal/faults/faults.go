// Package faults is a deterministic, seedable fault-injection layer for
// exercising the failure paths the paper's restart story depends on. Real
// runs fail — disks fill up, messages stall, I/O servers die mid-snapshot —
// and the recovery machinery (client retry, server failover, scan-based
// restart from the last complete snapshot) is only trustworthy if those
// failures can be provoked on demand, reproducibly, under `go test -race`.
//
// Three injection surfaces are provided:
//
//   - FS (fs.go): wraps an rt.FS / rt.File pair and fails chosen
//     operations — ENOSPC-style write errors, short writes, create
//     failures at the Nth operation on a matching path.
//
//   - NetPlan (net.go): plugs into mpi.ChanWorld's send hook and drops or
//     delays messages on selected tags, either at a deterministic
//     per-stream operation index or with a seeded per-stream probability.
//
//   - CrashPlan (crash.go): kills a Rocpanda server at a chosen point of
//     its service loop (mid-buffer, mid-drain, before the metadata
//     dataset, at a sync, mid-read) on the Nth visit, simulating process
//     death: the server stops responding and its open snapshot files are
//     left staged, never renamed into place, so no reader opens them.
//
// Determinism. Every plan is driven by operation counters scoped to a
// stream that is totally ordered by construction — a single file path, a
// single (src, dst, tag) message stream, a single server's crash point —
// never by global counters that would depend on goroutine interleaving.
// Probabilistic rules derive their RNG from a caller seed mixed with the
// stream identity, so the same seed always trips the same operations of
// the same stream regardless of scheduling. Plans record every trip
// (Trips) so tests can assert the failure point, not just the failure.
package faults

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the sentinel wrapped by every injected error, so callers
// can tell provoked failures from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// injectedErr builds an injected error carrying a human-readable cause.
func injectedErr(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInjected)
}

// Trip records one fired fault: which stream it hit and the 1-based
// operation index within that stream at which it fired.
type Trip struct {
	Stream string // e.g. "write:ck/snap_s001.rhdf", "send:3->0:1101", "crash:1:mid-drain"
	Op     int
}

// tripLog is the shared, mutex-guarded trip recorder embedded in plans.
type tripLog struct {
	mu    sync.Mutex
	trips []Trip
}

func (l *tripLog) record(stream string, op int) {
	l.mu.Lock()
	l.trips = append(l.trips, Trip{Stream: stream, Op: op})
	l.mu.Unlock()
}

// Trips returns a copy of every fault fired so far, in firing order.
// Within a single stream the order and operation indices are deterministic;
// across streams the interleaving follows the run's scheduling.
func (l *tripLog) Trips() []Trip {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Trip(nil), l.trips...)
}

// streamRNG is a splitmix64 generator seeded from a plan seed mixed with a
// stream identity, so each stream draws an independent, reproducible
// sequence no matter how streams interleave.
type streamRNG struct {
	state uint64
}

func newStreamRNG(seed uint64, stream string) *streamRNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return &streamRNG{state: h}
}

func (r *streamRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *streamRNG) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
