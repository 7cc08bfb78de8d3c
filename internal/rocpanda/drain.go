package rocpanda

// The server-side snapshot write (§6.1, Figure 2 — buffer a block, drain one
// block whenever the non-blocking probe comes back empty, block in probe
// when clean) is the shared write service, internal/snapshot.Writer, fed
// from the MPI stream: handleWrite submits each decoded block once per
// copy, the request loop (server.run) steps the inline queue between
// probes, and every sync, shutdown and restart read of an uncommitted
// generation ends in its Flush. What is the server's own is below: which
// driver, how wide, and what its files and series are called.

import (
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/snapshot"
)

// maxDrainWriters caps Config.DrainWriters.
const maxDrainWriters = 8

// newWriter builds the server's write service. This is the one place the
// driver is chosen — the only non-test read of cfg.AsyncDrain outside
// Validate: off (or without active buffering) the inline driver, the
// paper-faithful zero-worker case; on, a pool of DrainWriters writers.
func (s *server) newWriter() *snapshot.Writer {
	workers := 0
	if s.cfg.AsyncDrain {
		workers = min(max(s.cfg.DrainWriters, 1), maxDrainWriters)
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
		Crash:       func(p faults.CrashPoint) bool { return s.cfg.Crash.Hit(s.idx, p) },
		Trace:       s.cfg.Trace,
		TraceRank:   s.traceRank(),
	})
}
