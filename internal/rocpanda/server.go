package rocpanda

import (
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/snapshot"
)

// serverCrashed is the panic sentinel of an injected server crash — the
// snapshot services', so a crash point inside either and one on the request
// loop die the same way; run recovers it and returns without draining or
// acknowledging anything, simulating process death.
type serverCrashed = snapshot.Crashed

// readRound accumulates a collective read until all clients have asked.
// Requesters are tracked as a set of world ranks, not a raw count: after a
// failover a client may resend its request to a server that already has
// the first copy in flight, and counting that duplicate would start the
// scan before every client has actually asked (a partial restart).
type readRound struct {
	wantAll map[int]int  // (paneID) -> world rank of requesting client
	reqers  map[int]bool // world ranks that have requested this round
	alive   []int        // server indices sharing the scan (agreed by the clients)
	head    []byte       // the head commit record client 0's request carried, if any
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
	rd            *snapshot.Reader      // the restart-read service, shipping to the clients
	reads         map[string]*readRound // key: file|window|attr
	parts         map[string]int        // parts received of each write not yet whole, by base, window and attribute
	shutdown      int
	shutdownQueue []int // clients awaiting the shutdown ack

	mx srvMx
}

// srvMx holds a server's registry handles — with the write service's
// rocpanda.server.* series (newWriter) and the read service's
// rocpanda.restart.* series (newReader) the server's only tally; every
// handle is a nil-safe no-op when Config.Metrics is unset. Handles are
// created once at Init so the hot paths never touch the registry map.
type srvMx struct {
	crashes     *metrics.Counter
	readsServed *metrics.Counter
	adopted     *metrics.Counter
	scanSeconds *metrics.Histogram
	// The flush barrier a restart read of an uncommitted generation pays:
	// an event no scheduler sees, which is why it is not an iosched series.
	flushSeconds *metrics.Histogram
}

func newSrvMx(r *metrics.Registry) srvMx {
	return srvMx{
		crashes:      r.Counter("rocpanda.server.crashes"),
		readsServed:  r.Counter("rocpanda.server.reads_served"),
		adopted:      r.Counter("rocpanda.server.clients_adopted"),
		scanSeconds:  r.Histogram("rocpanda.server.restart_scan_seconds", nil),
		flushSeconds: r.Histogram("rocpanda.drain.flush_seconds", nil),
	}
}

// run is the server service loop, structured exactly as Section 6.1
// describes: with dirty buffers it polls for new requests between block
// writes (responsiveness); with clean buffers it blocks in probe, leaving
// the CPU to the operating system. The drain step of the last block of a
// write every client here has sent its part of also publishes its files,
// so a sync finds them published and only acknowledges.
func (s *server) run() {
	s.wr = s.newWriter()
	s.rd = newReader(s.ctx, &s.cfg, s.crashes, s.traceRank())
	s.reads = make(map[string]*readRound)
	s.parts = make(map[string]int)
	// An injected crash (internal/faults) panics with serverCrashed from
	// deep inside the loop; catching it here and returning — no drain, no
	// acks, snapshot files left staged, never renamed into place — is how
	// this backend models the process dying.
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
	// Acknowledge all shutdowns only after everything is on disk; the ack
	// carries the drain outcome so the clients can refuse the commit, and the
	// first carries what was published, once, to the commit.
	err := s.wr.Flush()
	published := s.wr.Published()
	for _, dst := range s.shutdownQueue {
		s.world.Send(dst, tagShutdownAck, encodeAck(err, published))
		published = nil
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
		// Of several clients syncing here, the first carries what the flush
		// published to the commit; the others' acks report only the outcome.
		s.recvEmpty(st.Source, tagSync, "sync request")
		if s.crashes(faults.AtSync) {
			panic(serverCrashed{})
		}
		err := s.wr.Flush()
		s.world.Send(st.Source, tagSyncAck, encodeAck(err, s.wr.Published()))
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

// recvEmpty receives one control message that must carry no payload. A
// payload is protocol damage but no reason to die: MPI framing keeps the
// stream in sync, so the message still does what its tag says, and the
// damage sticks as a drain error, which the next sync or shutdown ack
// carries to every client's commit.
func (s *server) recvEmpty(src, tag int, what string) {
	data, st := s.world.Recv(src, tag)
	if len(data) != 0 {
		s.wr.Fail(fmt.Errorf("rocpanda: server %d: unexpected %d-byte payload on %s from rank %d (tag %d)",
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
	// With this part, is every client's part of the write in? Then its
	// files hold the whole write once its last block lands, and that step
	// publishes them. Counting parts, not watching for an empty queue, puts
	// the publish at the same step whatever order the clients' parts arrived
	// in; counting them per write, not per base, keeps one client's next
	// write into the base from standing in for a part still on its way.
	// (A last part with no blocks publishes nothing; the sync does.)
	write := hdr.File + "\x00" + hdr.Window + "\x00" + hdr.Attr
	whole := s.parts[write]+1 >= len(s.myClients)
	if whole {
		delete(s.parts, write)
	} else {
		s.parts[write]++
	}
	for i := int32(0); i < hdr.NBlocks; i++ {
		payload, _ := s.world.Recv(src, tagWriteBlock)
		sets, err := roccom.DecodeIOSets(payload)
		if err != nil {
			s.wr.Fail(fmt.Errorf("rocpanda: server %d: corrupt write block %d/%d from rank %d (tag %d, %d bytes): %w",
				s.idx, i+1, hdr.NBlocks, src, tagWriteBlock, len(payload), err))
			continue
		}
		// One buffered block that lands in every copy: the primary, then
		// any replicas. The sets alias the received payload — the server's
		// buffer, copied nowhere else — so the buffer copy and the budget
		// are charged once, and only the written-byte tallies show the
		// write amplification.
		s.wr.Submit(snapshot.Block{
			File: fnames[0], Replicas: fnames[1:], Sets: sets, Bytes: int64(len(payload)),
			Time: hdr.Time, Step: hdr.Step, Whole: whole && i == hdr.NBlocks-1,
		})
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
		round = &readRound{wantAll: make(map[int]int), reqers: make(map[int]bool)}
		s.reads[key] = round
	}
	for _, id := range req.PaneIDs {
		round.wantAll[int(id)] = src
	}
	if req.Head != nil {
		round.head = req.Head
	}
	// The clients agree on the surviving-server set before asking (the
	// dead-set AllreduceOr in ReadPanes), so every request carries the same
	// alive list.
	if len(round.reqers) == 0 {
		for _, a := range req.Alive {
			round.alive = append(round.alive, int(a))
		}
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
	s.serveRead(req, round)
}

// serveRead serves one restart round through the restart-read service
// (internal/snapshot.Reader, which plans, reads and verifies): this server's
// share is what the one deal gives it, a verified pane is shipped to the
// client that asked for it, and every client learns how the share was read.
//
// One deal, keyed on the file and on nothing else: base_sHHH[rN].rhdf — or a
// rank's base_pHHHHH.rhdf, when an individual-I/O module wrote the
// generation — belongs to alive[HHH mod len(alive)], whether a catalog
// planned it or the listing found it. Servers therefore partition the files
// without talking to each other and without agreeing on anything but the
// survivor set: one that reached the catalog and one that did not still
// cover disjoint, exhaustive file sets, so a catalog verdict changes how a
// file is read, never whether it is; primaries spread evenly whatever the
// replication factor; and a planned file the directory lost is dealt like
// any other — its failed open triggers the per-pane replica retry.
//
// A round the service could not serve (snapshot.ReadFailed) still reports:
// no client is left hanging, and the clients decide whether peers covered
// the panes.
func (s *server) serveRead(req readReq, round *readRound) {
	wanted := make(map[int]bool, len(round.wantAll))
	for id := range round.wantAll {
		wanted[id] = true
	}
	clock := s.ctx.Clock()
	scanT0 := clock.Now()
	defer func() { s.mx.scanSeconds.Observe(clock.Now() - scanT0) }()
	mode := s.rd.Read(snapshot.ReadRequest{
		Base: req.File, Window: req.Window, Attr: req.Attr, Wanted: wanted, Head: round.head,
		Mine: func(home int) bool { return dealt(round.alive, home) == s.idx },
		// Reading a committed generation g proceeds at once, while the
		// write service may still be writing back g+1. When the flush does
		// run it is write-back cost, not scan cost: it gets its own
		// histogram and the scan clock restarts after it.
		Uncommitted: func() {
			flushT0 := clock.Now()
			s.wr.Flush()
			scanT0 = clock.Now()
			s.mx.flushSeconds.Observe(scanT0 - flushT0)
		},
		// The server goroutine owns all network traffic (simulated
		// endpoints charge the sending process). The sets are views into
		// the service's read buffers; Send gathers them straight into the
		// message, with no encoded copy in between.
		Deliver: func(pane int, sets []roccom.IOSet) {
			s.world.Send(round.wantAll[pane], tagReadBlock, roccom.IOSetSegments(sets)...)
			s.mx.readsServed.Inc()
		},
	})
	for _, c := range s.allClients {
		s.world.Send(c, tagReadDone, []byte{byte(mode)})
	}
}
