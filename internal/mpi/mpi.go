// Package mpi provides an MPI-like message-passing layer: tagged
// point-to-point messages with wildcard receive, blocking and non-blocking
// probe, communicator split, and tree-based collectives.
//
// The paper's I/O libraries (Rocpanda's client-server protocol in
// particular) need exactly this slice of MPI: blocking send with
// reusable-buffer semantics, Recv/Probe with MPI_ANY_SOURCE, MPI_Iprobe for
// active buffering's "yield to new requests" loop, and MPI_Comm_split for
// separating clients from I/O servers at initialization.
//
// A Comm is implemented generically on top of an Endpoint, which a backend
// provides per rank. Two backends exist: ChanWorld in this package (real
// concurrent goroutines, for running the library for real) and the
// simulated platforms in internal/cluster (virtual time, for reproducing
// the paper's performance results). Library code written against Comm runs
// unmodified on both.
package mpi

import "genxio/internal/rt"

// Wildcards for Recv and Probe.
const (
	AnySource = -1
	AnyTag    = -1
)

// Internal tags used by the collectives; application tags must be >= 0.
// A wildcard-tag receive never matches internal tags.
const (
	tagBarrierUp = -2 - iota
	tagBarrierDown
	tagBcast
	tagGather
	tagReduceUp
	tagSplit
)

// Message is a transport-level message. Src is the sender's global rank;
// Ctx isolates communicators that share the same endpoints.
type Message struct {
	Ctx  uint64
	Src  int
	Tag  int
	Data []byte
}

// Endpoint is what a backend provides to each rank: raw matched messaging
// against every other rank in the world. Implementations must preserve
// per-(sender,receiver) FIFO order among messages matching the same
// predicate.
type Endpoint interface {
	// GlobalRank returns this rank's index in the world.
	GlobalRank() int
	// NumRanks returns the world size.
	NumRanks() int
	// Send delivers m to the global rank dst, taking ownership of it (Comm
	// built m.Data for this message alone). It blocks only for transport
	// cost (simulated backends charge send time here), never for the
	// receiver to post a matching receive.
	Send(dst int, m *Message)
	// RecvMatch removes and returns the earliest pending message
	// matching pred, blocking until one arrives. With timeout > 0 it
	// returns nil when the wait expires, which it does only once every live
	// process is blocked in a world wait: the earliest deadline (now +
	// timeout) first, ties broken by rank.
	RecvMatch(pred func(*Message) bool, timeout float64) *Message
	// ProbeMatch blocks until a message matching pred is pending and
	// returns it without removing it.
	ProbeMatch(pred func(*Message) bool) *Message
	// TryProbeMatch returns a pending matching message without removing
	// it, or (nil, false); it never blocks.
	TryProbeMatch(pred func(*Message) bool) (*Message, bool)
}

// SendVerdict tells a transport what to do with one outgoing message.
// The zero value delivers normally.
type SendVerdict struct {
	// Drop discards the message without delivering it.
	Drop bool
	// Delay stalls the sender this many seconds before delivery, so
	// per-stream FIFO order is preserved.
	Delay float64
}

// SendHook inspects every transport-level send of a world and may drop or
// delay it (fault injection, internal/faults). Hooks are called from rank
// goroutines concurrently and must be safe for concurrent use.
type SendHook func(src, dst, tag, size int) SendVerdict

// Status describes a matched message.
type Status struct {
	Source int // rank within the communicator
	Tag    int
	Size   int // payload size in bytes
}

// Comm is a communicator: an ordered group of ranks with isolated message
// context, in the style of an MPI communicator.
type Comm interface {
	// Rank returns the caller's rank within this communicator.
	Rank() int
	// Size returns the number of ranks in this communicator.
	Size() int
	// Send sends one message to rank dst with the given tag (tag >= 0)
	// whose payload is the segments of data concatenated (no segments, or
	// only empty ones, send an empty payload). The copy contract: Send
	// gathers the segments into the delivered message in one pass — the
	// only copy a message costs, on every backend — so each may be reused
	// or changed as soon as Send returns, and the receiver owns what Recv
	// hands it.
	Send(dst, tag int, data ...[]byte)
	// Recv receives the earliest message matching (src, tag), either of
	// which may be a wildcard, and returns its payload and status.
	Recv(src, tag int) ([]byte, Status)
	// RecvTimed receives the earliest message from src carrying one of
	// tags; with timeout > 0 it returns ErrTimedOut if the wait expires.
	RecvTimed(src int, tags []int, timeout float64) ([]byte, Status, error)
	// Probe blocks until a message matching (src, tag) is pending and
	// returns its status without receiving it.
	Probe(src, tag int) Status
	// Iprobe is the non-blocking Probe; ok reports whether a matching
	// message is pending.
	Iprobe(src, tag int) (Status, bool)
	// Split partitions the communicator by color; ranks passing the
	// same color form a new communicator ordered by (key, old rank).
	// Every rank of the communicator must call Split. A negative color
	// returns nil for that rank (MPI_UNDEFINED).
	Split(color, key int) Comm
	// Global returns the caller's rank in the world (outside any
	// communicator), used for server-placement decisions.
	Global() int

	// Collectives. Every rank of the communicator must call the same
	// collectives in the same order.

	// Barrier blocks until all ranks have entered it.
	Barrier()
	// Bcast distributes root's data to all ranks and returns it;
	// non-root callers may pass nil.
	Bcast(root int, data []byte) []byte
	// Gather collects each rank's data at root, indexed by rank;
	// non-root callers receive nil. A rank's data may come in segments,
	// gathered into its one message as Send gathers them.
	Gather(root int, data ...[]byte) [][]byte
	// AllreduceMax returns the maximum of x over all ranks, on all ranks.
	AllreduceMax(x float64) float64
	// AllreduceMin returns the minimum of x over all ranks, on all ranks.
	AllreduceMin(x float64) float64
	// AllreduceOr returns the bitwise OR of bits over all ranks, on all ranks.
	AllreduceOr(bits uint64) uint64
}

// Ctx is the per-rank execution context a World hands to the rank's main
// function.
type Ctx interface {
	// Comm returns the world communicator.
	Comm() Comm
	// Clock returns this rank's clock.
	Clock() rt.Clock
	// FS returns this rank's view of the shared filesystem.
	FS() rt.FS
	// Node returns the id of the node hosting this rank.
	Node() int
	// ProcsPerNode returns the number of ranks placed on each node.
	ProcsPerNode() int
	// Spawn starts a background activity belonging to this rank (the
	// paper's per-process I/O thread). The activity gets its own clock
	// identity and filesystem view. The world waits for all spawned
	// activities before Run returns.
	Spawn(name string, fn func(rt.TaskCtx))
	// NewQueue returns a bounded queue for communication between this
	// rank and its background activities.
	NewQueue(capacity int) rt.Queue
}

// World launches a set of ranks. Run blocks until all ranks return; it
// returns the first non-nil error returned by a rank.
type World interface {
	Run(n int, main func(Ctx) error) error
}
