#!/bin/sh
# The codebase's structural claims as a check: one write path, one commit,
# one restart-read path with one kind of file work, one way to make a catalog
# and one loader of a file's entries,
# one verify-and-inflate, one bounded cursor, one payload copy per message —
# over the non-test Go under internal/. Run from the repository root; any
# miss fails.
fail=0
src() { find internal "$@" -name '*.go' ! -name '*_test.go'; } # src [find tests...]
one() { # one WHAT PATTERN: exactly one line matches
	n=$(src | xargs grep -hE "$2" | wc -l)
	[ "$n" -eq 1 ] || { echo "onepath: $n definitions of $1, want 1"; fail=1; }
}
none() { # none WHAT PATTERN [find tests...]: no line matches in those files
	what=$1 pat=$2; shift 2
	hits=$(src "$@" | xargs grep -nE "$pat")
	[ -z "$hits" ] || { echo "onepath: $what:"; echo "$hits"; fail=1; }
}
one commitPending '^func .*commitPending\('
one genPrefix '^func genPrefix\('
one 'a bounded cursor (its need method)' '^func \([a-z]+ \*?[A-Za-z]+\) need\('
none 'hdf.Open outside internal/hdf and the deep scrub (its independent reference reader)' 'hdf\.Open\(' \
	! -path 'internal/snapshot/fsck.go' ! -path 'internal/hdf/*'
none 'a dataset-at-a-time read in the restart reader' '\.Lookup\(|\.ReadData\(' -path 'internal/snapshot/reader.go'
hits=$(find . -name .bench_build -prune -o -name '*.go' -exec grep -nE 'ClassScan|func scanFile' {} +)
[ -z "$hits" ] || { echo "onepath: a scan class or a second file reader:"; echo "$hits"; fail=1; }
# Commit from what the writers know: a directory passes one gate, the
# walker, whether read off the file or reported by its writer; the walker's
# one materializing caller is hdf's Datasets (Open, ScanDir), its one caller
# in the catalog walkPanes, which Splice (the commit's sections: a file
# table of names and directory lengths and a pane index, no copy of any
# entry) and LoadDir share; one writer writes the sections, for Splice and
# Encode alike; and the snapshot package neither builds a catalog with
# AddFile nor re-encodes one.
one 'a directory walker (the gate)' '^func \([a-z]+ \*?RawDir\) Walk\('
one 'a dataset-extent check (the body of the walker)' 'outside data region'
for pkg in hdf catalog; do
	n=$(src -path "internal/$pkg/*" | xargs grep -hE '\.Walk\(' | wc -l)
	[ "$n" -eq 1 ] || { echo "onepath: $n callers of the directory walker in internal/$pkg, want 1"; fail=1; }
done
none 'a caller of the directory walker outside internal/hdf and internal/catalog' '\.Walk\(' \
	! -path 'internal/hdf/*' ! -path 'internal/catalog/*'
one 'a catalog sections writer' '^func appendSections\('
# One commit record per generation: one encoder and one decoder, the only
# functions that name its magic; and the older format — a JSON manifest
# beside a .catalog file — is named only where a record refuses it
# (legacyFormat).
one 'a commit record encoder' '^func encodeRecord\('
one 'a commit record decoder' '^func DecodeRecord\('
n=$(src | xargs grep -h 'recordMagic' | wc -l)
m=$(awk '/^func (encodeRecord|DecodeRecord)\(/,/^}/' internal/snapshot/manifest.go | grep -c 'recordMagic')
[ "$n" -eq $((m + 1)) ] || { echo "onepath: recordMagic named outside its definition, encodeRecord and DecodeRecord"; fail=1; }
n=$(find . -name .bench_build -prune -o -name '*.go' ! -name '*_test.go' -exec grep -h 'catalog\.Suffix' {} + | wc -l)
m=$(awk '/^func legacyFormat\(/,/^}/' internal/snapshot/manifest.go | grep -c 'catalog\.Suffix')
[ "$n" -eq "$m" ] || { echo "onepath: catalog.Suffix named outside the refusal of the older format (legacyFormat)"; fail=1; }
none 'a catalog built by AddFile or re-encoded in internal/snapshot' 'AddFile\(|\.Encode\(\)' -path 'internal/snapshot/*'
none 'ScanDir on the commit path' 'ScanDir\(' '(' -path 'internal/snapshot/commit.go' -o -path 'internal/snapshot/manifest.go' -o -path 'internal/snapshot/index.go' ')'
# One loader of a committed file's entries: its own directory, read from the
# extent the catalog places it at and held to its manifest entry — the
# DirCRC alone (dirLoad.load) for a restart's rounds, LoadChain and the
# scrub, the whole entry (checkFile) for the restore walk's file checks —
# is installed by dirLoad.install, the catalog's one LoadDir caller in the
# snapshot package besides derived (a derived index's own directories).
one 'a loader of a committed file'"'"'s entries' '^func \(l dirLoad\) load\('
n=$(src -path 'internal/snapshot/*' | xargs grep -hE '\.LoadDir\(' | wc -l)
[ "$n" -eq 2 ] || { echo "onepath: $n LoadDir calls in internal/snapshot, want 2 (dirLoad.install and derived)"; fail=1; }
n=$(src -path 'internal/snapshot/*' | xargs grep -hE '\.install\(' | wc -l)
[ "$n" -eq 2 ] || { echo "onepath: $n directory installs in internal/snapshot, want 2 (dirLoad.load and checkFiles)"; fail=1; }
hits=$(awk '/^func \(l dirLoad\) load\(/,/^}/' internal/snapshot/index.go | grep -c 'hdf.Checksum(dir); crc != l.e.DirCRC')
[ "$hits" -eq 1 ] || { echo "onepath: dirLoad.load does not hold the directory to its manifest entry's DirCRC"; fail=1; }
# Prune from what the commit knows: the commit round lists its prefix once
# and commit indexes from that listing; the prune removes only listed names
# (no per-generation listing, no staged name guessed at) and reads a
# manifest only for a chain link no commit of the process reported.
n=$(grep -c '\.List(' internal/snapshot/commit.go)
[ "$n" -eq 1 ] || { echo "onepath: $n listings in commit.go, want 1 (the commit round's)"; fail=1; }
hits=$(awk '/^func commit\(/,/^}/' internal/snapshot/manifest.go | grep -n '\.List(')
[ -z "$hits" ] || { echo "onepath: a listing inside manifest.go's commit:"; echo "$hits"; fail=1; }
none 'a per-generation listing or a hand-built staged-name remove in the prune' 'List\(g\.Base|[Rr]emove\(.*TmpSuffix' \
	'(' -path 'internal/snapshot/restore.go' -o -path 'internal/snapshot/prune.go' ')'
n=$(grep -c 'Load(' internal/snapshot/prune.go)
[ "$n" -eq 1 ] || { echo "onepath: $n manifest loads on the prune path, want 1 (the unknown-link fallback)"; fail=1; }
# One judge of a committed generation, per pane: one chain walk (LoadChain,
# with the one depth guard), one rule (restorable: every pane of the head's
# universe has a copy whose file passes, in the link it resolves to) that the
# restore walk and the scrub both call, with no replica count in it; one check
# of a file against its record's pins (checkFile; findDonor matches two
# entries, not a file), beside dirLoad.load's of a directory's bytes against
# the entry's DirCRC. The depth guard is the record decoder's.
none 'maxChainDepth outside the record decoder' 'maxChainDepth' -path 'internal/*' ! -path 'internal/snapshot/manifest.go'
none 'a chain walk of the scrub'"'"'s own' 'BaseGeneration' -path 'internal/snapshot/fsck.go'
none 'a replication count in the snapshot package' '\bReplication\b' -path 'internal/snapshot/*'
n=$(src -path 'internal/snapshot/*' | xargs awk '/^func /{f=$0} /(Size|DirCRC|size|crc) [!=]= [a-z]+\.(Size|DirCRC)/ && f !~ /findDonor/ && f !~ /dirLoad\) load/ {print FILENAME ": " f}' | sort -u | wc -l)
[ "$n" -eq 1 ] || { echo "onepath: $n functions compare a file with its manifest entry, want 1 (checkFile)"; fail=1; }
# A file is under its final name exactly when it holds a whole write: a
# data file's directory reaches the disk only by its writer's Publish, which
# the write service alone calls (after a write's last block, at a flush, or
# per block under individual I/O) — no landing without a publish.
hits=$(find . -name .bench_build -prune -o -name '*.go' -exec grep -nE '\bLand(ed)?\(' {} +)
[ -z "$hits" ] || { echo "onepath: a landing without a publish:"; echo "$hits"; fail=1; }
none 'an hdf.Writer Publish outside the write service' '\.Publish\(\)' ! -path 'internal/snapshot/writer.go' ! -path 'internal/hdf/*'
one 'verify-and-inflate (the caller of InflateStored)' '^[^f].*InflateStored\('
none 'iosched.New outside internal/snapshot' 'iosched\.New\(' ! -path 'internal/snapshot/*'
none 'RHDF writes in internal/rochdf or internal/rocpanda' 'hdf\.(Create|OpenAppend)\(|\.CreateDataset\(' \
	'(' -path 'internal/rochdf/*' -o -path 'internal/rocpanda/*' ')'
# Every byte moves once (PR 25): a message's one payload copy is Send's gather
# in internal/mpi/comm.go, panes are packed by view, and blocks travel as the
# wire codec's segments, never re-encoded into a buffer first.
none 'a payload copy in a transport endpoint' 'append\(\[\]byte\(nil\)|bytes\.(Clone|Join)\(|copy\(|\.Data\.\.\.' \
	'(' -path 'internal/mpi/chanworld.go' -o -path 'internal/cluster/ctx.go' ')'
none 'a converting pack in the pane extractor' 'hdf\.(F64|F32|I32)Bytes\(' -path 'internal/roccom/ioset.go'
none 'an encoded block buffer in internal/rocpanda or internal/rocman' 'EncodeIOSets\(' \
	'(' -path 'internal/rocpanda/*' -o -path 'internal/rocman/*' ')'
# One scheduler, no plug-ins: iosched's two admission rules are its two entry
# points (Submit streams under OverBudget, RunBatch admits what fits or runs
# alone), a crash is a Fatal result, and no single-caller switch comes back.
hits=$(find . -name .bench_build -prune -o -name '*.go' -exec grep -nE '\bPolicy\b|HoldSubmitter|Writeback\{\}|RestartRead\{\}' {} +)
[ -z "$hits" ] || { echo "onepath: a pluggable admission policy:"; echo "$hits"; fail=1; }
hits=$(find internal/iosched -name '*.go' -exec grep -nE \
	'MaxWorkers|CtlCap|Policy|FlushClass|CloseStateOnExit|FatalPanic|OverlapExternal|TraceZeroSpans|recover\(\)' {} +)
[ -z "$hits" ] || { echo "onepath: a removed iosched switch or a recover:"; echo "$hits"; fail=1; }
one 'the streaming budget rule' '^func OverBudget\('
one 'a queued-over-budget test (the body of OverBudget)' 'queued > [a-z.]*budget'
one 'a failure agreement' '^func AgreeMin\('
none 'an allreduce outside internal/mpi' 'AllreduceM(ax|in)\(' ! -path 'internal/mpi/*'
exit $fail
