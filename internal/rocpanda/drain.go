package rocpanda

// The server-side snapshot write (§6.1, Figure 2 — buffer a block, drain one
// block whenever the non-blocking probe comes back empty, block in probe
// when clean) is the shared write service, internal/snapshot.Writer, fed
// from the MPI stream: handleWrite submits each decoded block once, naming
// its replica files beside the primary, the request loop (server.run) steps
// the inline queue between probes — one copy of a block per step — and
// every sync, shutdown and restart read of an uncommitted generation ends
// in its Flush. The restart read is the shared read service
// the same way (internal/snapshot.Reader; server.serveRead feeds it the
// accumulated request and the deal). What is the server's own is below:
// which driver, how wide, and what its files and series are called.

import (
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mpi"
	"genxio/internal/snapshot"
)

// defaultReadWorkers is used when ParallelRead is on and ReadWorkers is
// unset.
const defaultReadWorkers = 4

// newWriter builds the server's write service. This is the one place the
// driver is chosen — the only non-test read of cfg.AsyncDrain outside
// Validate: off (or without active buffering) the inline driver, the
// paper-faithful zero-worker case; on, a pool of DrainWriters writers (the
// service caps it at snapshot.MaxWorkers).
func (s *server) newWriter() *snapshot.Writer {
	workers := 0
	if s.cfg.AsyncDrain {
		workers = max(s.cfg.DrainWriters, 1)
	}
	return snapshot.NewWriter(s.ctx, snapshot.WriterConfig{
		Profile:  s.cfg.Profile,
		Compress: s.cfg.Compress,
		Meta: []hdf.Attr{
			hdf.I32Attr("server", int32(s.idx)),
			hdf.I32Attr("nservers", int32(s.numServers)),
		},
		Buffering:   s.cfg.ActiveBuffering,
		Workers:     workers,
		MemcpyBW:    s.cfg.MemcpyBW,
		Budget:      s.cfg.BufferBudgetBytes,
		Metrics:     s.cfg.Metrics,
		Prefix:      "rocpanda.server.",
		ErrorSeries: "rocpanda.drain.errors",
		Crash:       s.crashes,
		Trace:       s.cfg.Trace,
		TraceRank:   s.traceRank(),
	})
}

// newReader builds a Rocpanda process's restart-read service. This is the
// one place the driver is chosen — the only non-test read of
// cfg.ParallelRead: off, the inline driver (the request loop runs each
// file's reads itself, the paper's restart); on, a pool of ReadWorkers read
// workers per round. A server reads its share and ships it with it (crash is
// its fault hook); a client's runs the restore walk (RestoreLatest), whose
// rank 0 issues its metadata reads through it, and answers PanesForRestart.
func newReader(ctx mpi.Ctx, cfg *Config, crash func(faults.CrashPoint) bool, traceRank int) *snapshot.Reader {
	workers := 0
	if cfg.ParallelRead {
		workers = defaultReadWorkers
		if cfg.ReadWorkers > 0 {
			workers = cfg.ReadWorkers
		}
	}
	return snapshot.NewReader(ctx, snapshot.ReaderConfig{
		Workers:       workers,
		Budget:        cfg.ReadBudgetBytes,
		Metrics:       cfg.Metrics,
		Prefix:        "rocpanda.restart.",
		SkippedSeries: "rocpanda.server.files_skipped",
		ErrorSeries:   "rocpanda.read.errors",
		Crash:         crash,
		Trace:         cfg.Trace,
		TraceRank:     traceRank,
	})
}

// crashes is the services' crash hook: does the injected plan kill this
// server at point?
func (s *server) crashes(point faults.CrashPoint) bool { return s.cfg.Crash.Hit(s.idx, point) }
