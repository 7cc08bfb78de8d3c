package rocpanda

import (
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// serverCrashed is the panic sentinel of an injected server crash — the
// write service's, so a crash point inside it and one on the request loop
// die the same way; run recovers it and returns without draining or
// acknowledging anything, simulating process death.
type serverCrashed = snapshot.WriterCrashed

// readRound accumulates a collective read until all clients have asked.
// Requesters are tracked as a set of world ranks, not a raw count: after a
// failover a client may resend its request to a server that already has
// the first copy in flight, and counting that duplicate would start the
// scan before every client has actually asked (a partial restart).
type readRound struct {
	attr    string
	wantAll map[int]int  // (paneID) -> world rank of requesting client
	reqers  map[int]bool // world ranks that have requested this round
	alive   []int        // server indices sharing the scan (agreed by the clients)
}

// server is the Rocpanda server routine state (Figure 2's I/O processor).
type server struct {
	ctx        mpi.Ctx
	world      mpi.Comm
	idx        int
	numServers int
	myClients  []int // world ranks served by this server (writes, sync)
	allClients []int
	cfg        Config

	wr            *snapshot.Writer      // the snapshot write service, fed from the MPI stream
	reads         map[string]*readRound // key: file|window|attr
	shutdown      int
	shutdownQueue []int // clients awaiting the shutdown ack

	mx srvMx
}

// srvMx holds a server's registry handles — with the write service's
// rocpanda.server.* series (newWriter) the server's only tally; every
// handle is a nil-safe no-op when Config.Metrics is unset. Handles are
// created once at Init so the hot paths never touch the registry map.
type srvMx struct {
	crashes      *metrics.Counter
	filesSkipped *metrics.Counter
	readsServed  *metrics.Counter
	adopted      *metrics.Counter
	scanSeconds  *metrics.Histogram

	// Read-path health and the flush barrier a restart read pays: events
	// no scheduler sees, which is why these are not iosched series (their
	// sibling rocpanda.drain.errors is the write service's).
	flushSeconds *metrics.Histogram
	readErrors   *metrics.Counter

	// Restart I/O-efficiency counters (catalog vs scan).
	filesOpened      *metrics.Counter
	restartBytes     *metrics.Counter
	bytesWasted      *metrics.Counter
	catalogHits      *metrics.Counter
	catalogFallbacks *metrics.Counter
	checksumFails    *metrics.Counter

	// Replica retries (Config.ReplicationFactor > 1).
	replicaReads  *metrics.Counter
	repairedPanes *metrics.Counter

	// Delta snapshots (Config.DeltaSnapshots).
	chainDepth *metrics.Gauge
}

func newSrvMx(r *metrics.Registry) srvMx {
	return srvMx{
		crashes:      r.Counter("rocpanda.server.crashes"),
		filesSkipped: r.Counter("rocpanda.server.files_skipped"),
		readsServed:  r.Counter("rocpanda.server.reads_served"),
		adopted:      r.Counter("rocpanda.server.clients_adopted"),
		scanSeconds:  r.Histogram("rocpanda.server.restart_scan_seconds", nil),

		flushSeconds: r.Histogram("rocpanda.drain.flush_seconds", nil),
		readErrors:   r.Counter("rocpanda.read.errors"),

		filesOpened:      r.Counter("rocpanda.restart.files_opened"),
		restartBytes:     r.Counter("rocpanda.restart.bytes_read"),
		bytesWasted:      r.Counter("rocpanda.restart.bytes_wasted"),
		catalogHits:      r.Counter("rocpanda.restart.catalog_hits"),
		catalogFallbacks: r.Counter("rocpanda.restart.catalog_fallbacks"),
		checksumFails:    r.Counter("hdf.checksum_failures"),

		replicaReads:  r.Counter("rocpanda.restart.replica_reads"),
		repairedPanes: r.Counter("rocpanda.restart.repaired_panes"),

		chainDepth: r.Gauge("rocpanda.restart.chain_depth"),
	}
}

// run is the server service loop, structured exactly as Section 6.1
// describes: with dirty buffers it polls for new requests between block
// writes (responsiveness); with clean buffers it blocks in probe, leaving
// the CPU to the operating system.
func (s *server) run() {
	s.wr = s.newWriter()
	s.reads = make(map[string]*readRound)
	// An injected crash (internal/faults) panics with serverCrashed from
	// deep inside the loop; catching it here and returning — no drain, no
	// acks, snapshot files left without directories — is how this backend
	// models the process dying.
	defer func() {
		r := recover()
		s.wr.Close()
		if r != nil {
			if _, died := r.(serverCrashed); !died {
				panic(r)
			}
			s.mx.crashes.Inc()
		}
	}()
	for s.shutdown < len(s.myClients) {
		if s.wr.Crashed() {
			panic(serverCrashed{}) // a writer task died; the process dies with it
		}
		if s.wr.Pending() {
			if st, ok := s.world.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
				s.handle(st)
			} else {
				s.wr.Step()
			}
			continue
		}
		s.handle(s.world.Probe(mpi.AnySource, mpi.AnyTag))
	}
	err := s.wr.Flush()
	// Acknowledge all shutdowns only after everything is on disk; the ack
	// carries the drain outcome so the clients can refuse the commit.
	for _, dst := range s.shutdownQueue {
		s.world.Send(dst, tagShutdownAck, ackPayload(err))
	}
}

// traceRank is this server's row in the phase timeline: servers sit after
// the client ranks so drain spans never overwrite a client's row.
func (s *server) traceRank() int { return len(s.allClients) + s.idx }

// handle dispatches one control message.
func (s *server) handle(st mpi.Status) {
	switch st.Tag {
	case tagWriteHdr:
		s.handleWrite(st.Source)
	case tagReadReq:
		s.handleReadReq(st.Source)
	case tagSync:
		s.recvEmpty(st.Source, tagSync, "sync request")
		s.world.Send(st.Source, tagSyncAck, ackPayload(s.wr.Flush()))
	case tagShutdown:
		s.recvEmpty(st.Source, tagShutdown, "shutdown request")
		s.shutdown++
		s.shutdownQueue = append(s.shutdownQueue, st.Source)
	case tagAdopt:
		s.recvEmpty(st.Source, tagAdopt, "adoption announcement")
		for _, c := range s.myClients {
			if c == st.Source {
				return // already ours
			}
		}
		s.myClients = append(s.myClients, st.Source)
		s.mx.adopted.Inc()
	default:
		panic(fmt.Sprintf("rocpanda: server %d got unexpected tag %d from %d", s.idx, st.Tag, st.Source))
	}
}

// recvExpect receives one protocol message that must carry a payload.
// The server panics on protocol damage (its process is useless once the
// stream is desynchronized), but always with enough context — server
// index, peer rank, tag — to attribute the failure; silently decoding an
// empty or truncated payload would surface as a confusing error far from
// the broken link.
func (s *server) recvExpect(src, tag int, what string) []byte {
	data, st := s.world.Recv(src, tag)
	if len(data) == 0 {
		panic(fmt.Sprintf("rocpanda: server %d: empty %s from rank %d (tag %d)", s.idx, what, st.Source, st.Tag))
	}
	return data
}

// recvEmpty receives one control message that must carry no payload.
func (s *server) recvEmpty(src, tag int, what string) {
	data, st := s.world.Recv(src, tag)
	if len(data) != 0 {
		panic(fmt.Sprintf("rocpanda: server %d: unexpected %d-byte payload on %s from rank %d (tag %d)",
			s.idx, len(data), what, st.Source, st.Tag))
	}
}

// handleWrite receives one client's header and blocks for a collective
// write and submits the blocks to the write service; the ack goes out once
// the engine has taken (buffered, or under write-through written) them all.
//
// A block that arrives empty or undecodable is an error path, not a panic:
// MPI framing keeps the stream in sync, so the remaining blocks are still
// received and written, the damage sticks as a drain error, and the next
// sync ack makes the clients' commit allreduce refuse the generation.
func (s *server) handleWrite(src int) {
	data := s.recvExpect(src, tagWriteHdr, "write header")
	hdr, err := decodeWriteHdr(data)
	if err != nil {
		panic(fmt.Sprintf("rocpanda: server %d: corrupt write header from rank %d (tag %d): %v", s.idx, src, tagWriteHdr, err))
	}
	fnames := s.copyNames(hdr.File)
	for i := int32(0); i < hdr.NBlocks; i++ {
		payload, _ := s.world.Recv(src, tagWriteBlock)
		sets, err := roccom.DecodeIOSets(payload)
		if err != nil {
			s.wr.Fail(fmt.Errorf("rocpanda: server %d: corrupt write block %d/%d from rank %d (tag %d, %d bytes): %w",
				s.idx, i+1, hdr.NBlocks, src, tagWriteBlock, len(payload), err))
			continue
		}
		// One block per copy: the primary plus any replicas, all through
		// the same service, so the buffered-byte and written-byte tallies
		// honestly show the write amplification.
		for _, fname := range fnames {
			s.wr.Submit(snapshot.Block{File: fname, Sets: sets, Bytes: int64(len(payload)), Time: hdr.Time, Step: hdr.Step})
		}
	}
	s.world.Send(src, tagWriteAck, nil)
}

// copyNames returns every file this server's blocks go to for a snapshot
// base: the primary, then ReplicationFactor-1 replicas homed round-robin
// at the *other* servers' file sets (base_sHHHrN.rhdf with H = (idx+N) mod
// numServers) so losing one server's files costs replicas of at most one
// copy of each pane. Each replica receives the exact block sequence of its
// primary, so the two files are byte-identical — which is what lets the
// restart read path and genxfsck -repair substitute one for the other
// without any translation.
func (s *server) copyNames(base string) []string {
	names := []string{catalog.ServerFile(base, s.idx, 0)}
	for r := 1; r < s.cfg.ReplicationFactor; r++ {
		names = append(names, catalog.ServerFile(base, (s.idx+r)%s.numServers, r))
	}
	return names
}

// maybeCrash dies at point if the injected crash plan says so.
func (s *server) maybeCrash(point faults.CrashPoint) {
	if s.cfg.Crash.Hit(s.idx, point) {
		panic(serverCrashed{})
	}
}

// handleReadReq accumulates one client's restart request; when all clients
// have asked, the server scans its share of the snapshot files and ships
// the found blocks to their owners (Section 4.1's restart protocol).
func (s *server) handleReadReq(src int) {
	data := s.recvExpect(src, tagReadReq, "read request")
	req, err := decodeReadReq(data)
	if err != nil {
		panic(fmt.Sprintf("rocpanda: server %d: corrupt read request from rank %d (tag %d): %v", s.idx, src, tagReadReq, err))
	}
	key := req.File + "|" + req.Window + "|" + req.Attr
	round, ok := s.reads[key]
	if !ok {
		round = &readRound{attr: req.Attr, wantAll: make(map[int]int), reqers: make(map[int]bool)}
		s.reads[key] = round
	}
	for _, id := range req.PaneIDs {
		round.wantAll[int(id)] = src
	}
	// The clients agree on the surviving-server set before asking (an
	// allreduce in ReadAttribute), so every request carries the same
	// alive list; keep the intersection anyway so a disagreement can only
	// shrink a server's share, never leave a file scanned twice.
	if len(round.reqers) == 0 {
		for _, a := range req.Alive {
			round.alive = append(round.alive, int(a))
		}
	} else if len(req.Alive) > 0 {
		keep := make(map[int]bool, len(req.Alive))
		for _, a := range req.Alive {
			keep[int(a)] = true
		}
		var merged []int
		for _, a := range round.alive {
			if keep[a] {
				merged = append(merged, a)
			}
		}
		round.alive = merged
	}
	// Count distinct requesters, not messages: a failed-over client can
	// resend the same request (its timeout fired while this server was
	// slow, not dead), and treating the duplicate as a new requester
	// would start the scan before the remaining clients asked.
	round.reqers[src] = true
	if len(round.reqers) < len(s.allClients) {
		return
	}
	delete(s.reads, key)
	s.serveRead(req.File, req.Window, round)
}

// serveRead serves one restart round: it plans this server's share of the
// generation's files, reads and ships it (serveItems), and reports to every
// client how the share was read.
//
// One plan. The generation's chain is loaded once, newest first; a full
// generation is the chain of length one. Every requested pane resolves to
// the newest link whose block catalog holds it — each pane to exactly one
// (generation, file, extent) — and each link's planned files are read by
// direct coalesced offset reads, every entry CRC-verified before anything
// from its file ships; files the catalogs know but planned nothing from are
// never opened. Each item carries its link's catalog, so a failed file's
// per-pane replica retries consult the right generation.
//
// One deal, keyed on the file and on nothing else: base_sHHH[rN].rhdf
// belongs to alive[HHH mod len(alive)], whether a catalog planned it or the
// listing found it. Servers therefore partition the files without talking
// to each other and without agreeing on anything but the survivor set: one
// that reached the catalog and one that did not still cover disjoint,
// exhaustive file sets, so a catalog verdict changes how a file is read,
// never whether it is; primaries spread evenly whatever the replication
// factor; and a planned file the directory lost is dealt like any other —
// its failed open triggers the per-pane replica retry.
//
// The directory scan remains where the files are the only description of
// the state: a full generation whose catalog will not load scans every
// listed file of its share; so does a head with no readable manifest, once
// the flush barrier has put an uncommitted generation's blocks on disk; and
// an indexed full generation still scans listed files its catalog never saw
// (a server wrongly declared dead renamed its file into place after the
// commit). A delta's files do not spell out the panes it inherits, so a
// delta head with any unloadable link fails the round — doneModeFailed,
// nothing shipped from this server — and the clients' completeness check
// sends the restore walk back past the whole chain. A failed listing
// reports the same way instead of killing the server: no client is left
// hanging, and the clients decide whether peers covered the panes.
func (s *server) serveRead(file, window string, round *readRound) {
	// The loaded chain also answers "committed?". A committed generation
	// needs no flush barrier: its commit record exists only because the Sync
	// flush already put every block of it on disk — so reading generation g
	// proceeds immediately, while the write service may still be writing back
	// g+1. When the flush does run it is write-back cost, not scan cost: it
	// gets its own histogram and the scan clock restarts after it.
	scanT0 := s.ctx.Clock().Now()
	chain, chainErr := snapshot.LoadChain(s.ctx.FS(), file)
	if len(chain) == 0 {
		flushT0 := s.ctx.Clock().Now()
		s.wr.Flush()
		scanT0 = s.ctx.Clock().Now()
		s.mx.flushSeconds.Observe(scanT0 - flushT0)
	}
	defer func() { s.mx.scanSeconds.Observe(s.ctx.Clock().Now() - scanT0) }()

	// The servers sharing the round: all of them normally, the agreed
	// survivors in degraded mode.
	alive := round.alive
	if len(alive) == 0 {
		alive = make([]int, s.numServers)
		for i := range alive {
			alive[i] = i
		}
	}
	mine := func(home int) bool { return dealt(alive, home) == s.idx }

	var items []readItem
	mode := byte(doneModeScan)
	indexed := make(map[string]bool) // files the head's catalog describes
	switch {
	case chainErr != nil && len(chain) > 0:
		mode = doneModeFailed // a delta head with an unloadable link
	case len(chain) > 0 && chain[0].Catalog != nil:
		mode = doneModeIndexed
		s.mx.chainDepth.SetMax(float64(len(chain) - 1))
		wanted := make(map[int]bool, len(round.wantAll))
		for id := range round.wantAll {
			wanted[id] = true
		}
		cats := snapshot.ChainCatalogs(chain)
		for gi, panes := range catalog.ResolvePanes(cats, window, wanted) {
			for _, plan := range cats[gi].PlanReads(window, panes) {
				// A planned file outside the grammar has home 0.
				if _, home, _, _ := catalog.ParseServerFile(plan.File); mine(home) {
					items = append(items, readItem{name: plan.File, plan: plan, cat: cats[gi]})
				}
			}
		}
		for _, name := range chain[0].Catalog.Files {
			indexed[name] = true
		}
	}
	if mode != doneModeFailed && len(chain) <= 1 {
		names, err := s.ctx.FS().List(file + "_s")
		if err != nil {
			mode = doneModeFailed
		}
		for _, name := range names {
			if base, home, _, ok := catalog.ParseServerFile(name); ok && base == file && mine(home) && !indexed[name] {
				items = append(items, readItem{name: name, scan: true})
			}
		}
	}
	switch mode {
	case doneModeFailed:
		s.noteReadErr()
	case doneModeIndexed:
		s.serveItems(window, round, items)
		s.mx.catalogHits.Inc()
	default:
		s.serveItems(window, round, items)
		s.mx.catalogFallbacks.Inc()
	}
	for _, c := range s.allClients {
		s.world.Send(c, tagReadDone, []byte{mode})
	}
}

// paneShip is one pane's ship-ready payload: assembled datasets destined
// for the owning client. Building one never sends anything — the server
// goroutine owns all network traffic (simulated endpoints charge the
// sending process), so workers assemble and the request loop ships.
type paneShip struct {
	owner int
	sets  []roccom.IOSet
}

// sendShips ships assembled pane payloads to their owners, in order.
func (s *server) sendShips(ships []paneShip) {
	for _, sh := range ships {
		s.world.Send(sh.owner, tagReadBlock, roccom.EncodeIOSets(sh.sets))
		s.mx.readsServed.Inc()
	}
}

// skipFile records one unreadable or damaged snapshot file skipped during
// a restart, with whatever was already read from it accounted as wasted —
// bytes_read counts only files that shipped.
func (s *server) skipFile(wasted int64) {
	s.mx.filesSkipped.Inc()
	s.noteReadErr()
	if wasted > 0 {
		s.mx.bytesWasted.Add(wasted)
	}
}

// noteReadErr counts one read-path failure (a failed listing, or a file
// skipped mid-round).
func (s *server) noteReadErr() {
	s.mx.readErrors.Inc()
}

// noteRestartBytes accounts payload bytes of a file whose panes shipped.
func (s *server) noteRestartBytes(n int64) {
	if n <= 0 {
		return
	}
	s.mx.restartBytes.Add(n)
}

// assembleShips verifies one planned file's read buffers and groups its
// entries into per-pane payloads, in plan (entry) order. ok is false when
// anything is damaged — CRC mismatch (crcFailed then reports it), an
// extent outside its run, a bad inflate, a short payload: the whole file
// must be skipped with nothing shipped, matching the scan path's
// semantics so a restart never mixes verified and unverified panes from
// one file. Pure with respect to the server (safe to call with
// worker-filled buffers after the handoff).
func assembleShips(plan catalog.FilePlan, runs []catalog.Run, bufs [][]byte, round *readRound) (ships []paneShip, crcFailed, ok bool) {
	stored := make([][]byte, len(plan.Entries))
	ri := 0
	for i := range plan.Entries {
		e := &plan.Entries[i]
		for ri < len(runs) && e.Offset >= runs[ri].Offset+runs[ri].Length {
			ri++
		}
		if ri == len(runs) || e.Offset < runs[ri].Offset || e.Offset+e.Length > runs[ri].Offset+runs[ri].Length {
			return nil, false, false
		}
		b := bufs[ri][e.Offset-runs[ri].Offset : e.Offset-runs[ri].Offset+e.Length]
		if e.HasCRC && hdf.Checksum(b) != e.CRC {
			// The snapshot was damaged after commit; skip the whole file
			// so the restart recovers the panes elsewhere or falls back a
			// generation.
			return nil, true, false
		}
		stored[i] = b
	}
	panes := make(map[int]*paneShip)
	var order []int
	for i := range plan.Entries {
		e := &plan.Entries[i]
		logical := int64(e.Type.Size())
		for _, d := range e.Dims {
			logical *= d
		}
		data := stored[i]
		if e.Compressed {
			var err error
			if data, err = hdf.InflateStored(data, logical); err != nil {
				return nil, false, false
			}
		} else if int64(len(data)) != logical {
			return nil, false, false
		}
		pd, seen := panes[e.Pane]
		if !seen {
			pd = &paneShip{owner: round.wantAll[e.Pane]}
			panes[e.Pane] = pd
			order = append(order, e.Pane)
		}
		pd.sets = append(pd.sets, roccom.IOSet{Name: e.Name, Type: e.Type, Dims: e.Dims, Attrs: e.Attrs, Data: data})
	}
	ships = make([]paneShip, 0, len(order))
	for _, id := range order {
		ships = append(ships, *panes[id])
	}
	return ships, false, true
}

// collectScanFile walks one snapshot file and assembles the requested
// panes of the window into ship-ready payloads, without sending anything.
// It runs with the clock and filesystem view of whichever process drives
// the scan task (the request loop, or a read worker), so the profile's
// per-dataset lookup costs charge to the walking process. bytesRead counts payload bytes
// pulled from the file whether or not the walk succeeded; failed means the
// whole file must be skipped (unopenable — what a crashed server leaves
// behind — or damaged mid-walk), with nothing shipped from it.
func collectScanFile(fsys rt.FS, clock rt.Clock, profile hdf.CostProfile, reg *metrics.Registry,
	name, window string, round *readRound) (ships []paneShip, bytesRead int64, opened, failed bool) {
	r, err := hdf.Open(fsys, name, clock, profile)
	if err != nil {
		return nil, 0, false, true
	}
	r.Metrics = reg
	defer r.Close()

	panes := make(map[int]*paneShip)
	var order []int
	for _, d := range r.Datasets() {
		win, paneID, _, ok := roccom.ParseDatasetName(d.Name)
		if !ok || win != window {
			continue
		}
		owner, wanted := round.wantAll[paneID]
		if !wanted {
			continue
		}
		// Locate and read through the library (charges lookup cost).
		ds, ok := r.Lookup(d.Name)
		if !ok {
			continue
		}
		data, err := r.ReadData(ds)
		if err != nil {
			// A checksum mismatch (or read failure) in a committed file:
			// damaged after commit. The whole file is skipped — nothing
			// has been shipped yet — so the restart either recovers the
			// panes from another server's file or reports the snapshot
			// incomplete, sending the caller back a generation.
			return nil, bytesRead, true, true
		}
		bytesRead += int64(len(data))
		pd, ok := panes[paneID]
		if !ok {
			pd = &paneShip{owner: owner}
			panes[paneID] = pd
			order = append(order, paneID)
		}
		pd.sets = append(pd.sets, roccom.IOSet{Name: ds.Name, Type: ds.Type, Dims: ds.Dims, Attrs: ds.Attrs, Data: data})
	}
	ships = make([]paneShip, 0, len(order))
	for _, id := range order {
		ships = append(ships, *panes[id])
	}
	return ships, bytesRead, true, false
}
