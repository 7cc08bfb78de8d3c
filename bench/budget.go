package main

import (
	"fmt"
	"io"
)

// The budget sets what each layer costs alone (its replayed rate applied
// to the bytes, panes or generations it handles, divided by the ranks
// that share the work) beside what the clients actually waited. What the
// parts do not explain is unattributed: queueing, scheduling, the
// protocol, and anything the replays miss. It is reported, never gated —
// closing it needs spans inside the program.

type budgetLine struct {
	Path    callKind // callWrite: one generation's visible write + sync; callRead: one restart
	Part    string   // layer metric the line is derived from; "" for the measured whole
	Seconds float64
}

// perByte is the seconds a layer needs for n bytes at a replayed MB/s.
func perByte(n, mbps float64) float64 {
	if mbps == 0 {
		return 0
	}
	return n / (mbps * 1e6)
}

func budget(wl *workload, vals map[string]float64, traced []repResult) []budgetLine {
	var state, panes, writeWhole, readWhole, shipped float64
	for i := range traced {
		r := &traced[i]
		state, panes = float64(r.StateBytesPerGen), float64(r.PanesPerGen)
		writeWhole += (r.seconds(callWrite) + r.seconds(callSync)) / float64(r.Gens)
		readWhole += r.seconds(callRead) / float64(r.Restarts)
	}
	n := float64(len(traced))
	writeWhole, readWhole = writeWhole/n, readWhole/n
	// A delta generation ships only its dirty panes; replication writes
	// every shipped byte R times.
	shipped = state * vals["rocpanda.write.dirty_pane_share"]
	copies := 1.0
	servers := float64(wl.Servers)
	if wl.TRochdf {
		servers = float64(wl.Clients) // every rank drains its own file
	} else if r := wl.Panda(wl.Servers).ReplicationFactor; r > 1 {
		copies = float64(r)
	}
	perClient, perServer := shipped/float64(wl.Clients), shipped/servers
	gensPerSync := float64(wl.gensPerEpoch())

	lines := []budgetLine{{Path: callWrite, Seconds: writeWhole}}
	add := func(path callKind, part string, seconds float64) {
		lines = append(lines, budgetLine{Path: path, Part: part, Seconds: seconds})
	}
	add(callWrite, "roccom.pack_mbps", perByte(perClient, vals["roccom.pack_mbps"]))
	if !wl.TRochdf {
		add(callWrite, "roccom.encode_mbps", perByte(perClient, vals["roccom.encode_mbps"]))
		add(callWrite, "mpi.stream_mbps", perByte(perClient, vals["mpi.stream_mbps"]))
		add(callWrite, "roccom.decode_mbps", perByte(perServer, vals["roccom.decode_mbps"]))
	}
	add(callWrite, "hdf.write_mbps", perByte(perServer*copies, vals["hdf.write_mbps"]))
	// The replayed commit indexes one client's panes; a generation has
	// every client's.
	add(callWrite, "snapshot.commit_ms", vals["snapshot.commit_ms"]/1e3*float64(wl.Clients))
	add(callWrite, "snapshot.prune_ms", vals["snapshot.prune_ms"]/1e3/gensPerSync)

	readers := float64(wl.Clients)
	readServers := servers
	if wl.RestartClients > 0 {
		readers, readServers = float64(wl.RestartClients), float64(wl.RestartServers)
	}
	lines = append(lines, budgetLine{Path: callRead, Seconds: readWhole})
	add(callRead, "hdf.read_mbps", perByte(state/readServers, vals["hdf.read_mbps"]))
	if !wl.TRochdf {
		add(callRead, "catalog.plan_us_per_pane", panes*vals["catalog.plan_us_per_pane"]/1e6)
		add(callRead, "roccom.encode_mbps", perByte(state/readServers, vals["roccom.encode_mbps"]))
		add(callRead, "mpi.stream_mbps", perByte(state/readServers, vals["mpi.stream_mbps"]))
		add(callRead, "roccom.decode_mbps", perByte(state/readers, vals["roccom.decode_mbps"]))
	}
	add(callRead, "roccom.restore_mbps", perByte(state/readers, vals["roccom.restore_mbps"]))
	return lines
}

// unattributed is 1 − Σ parts ÷ whole for one path.
func unattributed(lines []budgetLine, path callKind) float64 {
	var whole, parts float64
	for _, l := range lines {
		switch {
		case l.Path != path:
		case l.Part == "":
			whole = l.Seconds
		default:
			parts += l.Seconds
		}
	}
	if whole == 0 {
		return 0
	}
	return 1 - parts/whole
}

func printBudget(w io.Writer, lines []budgetLine) {
	titles := map[callKind]string{
		callWrite: "write budget, per generation (visible write + sync)",
		callRead:  "read budget, per restart",
	}
	for _, path := range []callKind{callWrite, callRead} {
		var whole float64
		for _, l := range lines {
			if l.Path == path && l.Part == "" {
				whole = l.Seconds
			}
		}
		fmt.Fprintf(w, "  %s: %.3f ms measured\n", titles[path], whole*1e3)
		for _, l := range lines {
			if l.Path == path && l.Part != "" {
				fmt.Fprintf(w, "    %-28s %9.3f ms  %5.1f%%\n", l.Part, l.Seconds*1e3, 100*ratio(l.Seconds, whole))
			}
		}
		fmt.Fprintf(w, "    %-28s %9s     %5.1f%%\n", "unattributed", "", 100*unattributed(lines, path))
	}
}
