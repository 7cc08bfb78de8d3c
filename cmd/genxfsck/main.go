// Command genxfsck scrubs a directory of snapshot generations: for every
// generation it verifies the commit record, each file's size and
// directory checksum, and — unless -quick — reads every dataset back so
// the per-dataset CRC32Cs cover the payload bytes and loads every file's
// directory through the record's catalog. One flipped bit anywhere in a
// committed file is reported against that file.
//
// Usage:
//
//	genxfsck [-root DIR] [-prefix PFX] [-json] [-quick] [-repair]
//
// The scrub walks the generations under -root joined with -prefix (for
// example -root out -prefix "" scrubs out/snap*).
//
// -json prints the reports as JSON, each committed generation's with its
// commit record as read: size and CRC32C, the file table, a per-window
// summary of the pane index and a delta's chain links.
//
// -repair rebuilds corrupt or missing files of replicated generations
// from verified surviving copies (byte-identical replicas pinned by the
// record), staging each rebuild to a temporary file and renaming it into
// place. A damaged commit record has no copy and is not rebuilt: its
// generation stays CORRUPT, and the restore walk falls back past it.
// Generations fully restored this way report the verdict REPAIRED and
// count as clean. -repair implies the full payload scrub and cannot be
// combined with -quick.
//
// Verdicts, and the exit status encoding the worst one found:
//
//	OK                every recorded byte verifies                exit 0
//	REPAIRED          damage rebuilt from replicas (-repair)      exit 0
//	UNCOMMITTED       no commit record; crash residue the
//	                  restart path already ignores                exit 1
//	CORRUPT           a recorded file is damaged or missing, or
//	                  the commit record does not load (torn,
//	                  damaged, an older format) or lies about the
//	                  "directory extent of <file>" (full scrub
//	                  only); the detail names which               exit 2
//	CHAIN-BROKEN      the generation's own files are clean but the
//	                  restore walk will not restore it: a chain
//	                  link will not load or is not the record its
//	                  head pins, or a pane has no intact copy
//	                  (the detail names it)                       exit 2
//
//	0  every committed generation verifies (OK / REPAIRED)
//	1  only UNCOMMITTED generations are unclean
//	2  some generation is CORRUPT or CHAIN-BROKEN (and, with -repair,
//	   could not be fully repaired)
//	3  usage or I/O errors
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// Exit codes, worst verdict wins.
const (
	exitOK          = 0
	exitUncommitted = 1
	exitCorrupt     = 2
	exitUsage       = 3
)

func main() {
	root := flag.String("root", ".", "directory holding the snapshot files")
	prefix := flag.String("prefix", "", "scrub only generations whose base starts with this prefix (relative to -root)")
	jsonOut := flag.Bool("json", false, "emit the scrub report as JSON")
	quick := flag.Bool("quick", false, "verify commit records, sizes and directory checksums only; skip the payload scrub")
	repair := flag.Bool("repair", false, "rebuild corrupt or missing files from verified replicas before reporting")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "genxfsck: unexpected arguments %v\n", flag.Args())
		os.Exit(exitUsage)
	}
	if *repair && *quick {
		fmt.Fprintln(os.Stderr, "genxfsck: -repair needs the full payload scrub; drop -quick")
		os.Exit(exitUsage)
	}

	fsys, err := rt.NewOSFS(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genxfsck: %v\n", err)
		os.Exit(exitUsage)
	}

	var reports []snapshot.GenReport
	switch {
	case *repair:
		reports, err = snapshot.Repair(fsys, *prefix)
	case *quick:
		reports, err = snapshot.FsckQuick(fsys, *prefix)
	default:
		reports, err = snapshot.Fsck(fsys, *prefix)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "genxfsck: %v\n", err)
		os.Exit(exitUsage)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "genxfsck: %v\n", err)
			os.Exit(exitUsage)
		}
	} else {
		fmt.Print(snapshot.Format(reports))
	}
	if len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "genxfsck: no snapshot generations under %s\n", *root)
	}
	os.Exit(exitCode(reports))
}

// exitCode maps the reports to the documented severity scheme: corrupt
// beats uncommitted beats clean.
func exitCode(reports []snapshot.GenReport) int {
	code := exitOK
	for _, rep := range reports {
		switch rep.Verdict {
		case snapshot.VerdictCorrupt, snapshot.VerdictChainBroken:
			return exitCorrupt
		case snapshot.VerdictUncommitted:
			code = exitUncommitted
		}
	}
	return code
}
