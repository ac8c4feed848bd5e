// Command tcindex builds the TC-Tree index of a database network and writes
// it to disk, reporting the Table 3 metrics (indexing time, memory, #nodes).
//
// The index is a directory holding one TCBIN shard file per top-level item (a
// flat binary layout served zero-copy from a memory map, docs/FORMAT.md)
// plus an index.manifest, which tcserver and tcquery serve lazily — loading
// only the shards a workload touches. It is the only persisted layout, and it
// is derived data: rewriting -out from the .dbnet replaces whatever index was
// there, including one written by a release with other layouts. A rewrite is
// one staged commit: shard files are named by their content
// (shard-<item>-<crc>.tcbin), so the old index stays whole until the new
// manifest is renamed into place, and the files the new manifest does not
// name are removed after that swap.
//
// The manifest is stamped with the network file's journal seq, so an index
// rebuilt from a checkpointed network agrees with it and the next writable
// open replays nothing. tcindex refuses to rewrite an index while its
// default journal (journal/ beside the index, where tcupdate and tcserver
// without -journal keep it) holds records for that network past the network
// file's stamp: a regenerated network file carries no stamp, and those
// records would be replayed onto its index. Replay them by opening the pair
// writable, or delete the journal.
//
// Usage:
//
//	tcindex -in bk.dbnet -out bk.index
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"themecomm"
	"themecomm/internal/dbnet"
	"themecomm/internal/experiments"
	"themecomm/internal/federation"
	"themecomm/internal/journal"
	"themecomm/internal/replication"
)

// errUsage marks a command line the flag set rejected and already explained.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcindex: ")
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// run parses the command line, builds the index and writes it, reporting to
// out.
func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("tcindex", flag.ContinueOnError)
	in := flags.String("in", "", "input database network file (required)")
	outDir := flags.String("out", "", "output index directory (defaults to <in> with .dbnet replaced by .index)")
	workers := flags.Int("workers", 0, "parallelism of the first tree level (0 = GOMAXPROCS)")
	maxDepth := flags.Int("maxdepth", 0, "maximum indexed pattern length (0 = unbounded)")
	if err := flags.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err) // flag.ErrHelp for -h
	}
	if *in == "" {
		flags.Usage()
		return errUsage
	}
	dir := *outDir
	if dir == "" {
		dir = strings.TrimSuffix(*in, ".dbnet") + ".index"
	}
	nw, _, err := themecomm.ReadNetworkFile(*in)
	if err != nil {
		return err
	}
	seq, err := dbnet.ReadJournalSeq(*in)
	if err != nil {
		return err
	}
	if err := checkJournal(dir, seq); err != nil {
		return err
	}

	idx, elapsed, mem, err := experiments.MeasureBuild(nw, themecomm.TreeBuildOptions{Parallelism: *workers, MaxDepth: *maxDepth})
	if err != nil {
		return err
	}
	idx.JournalSeq = seq
	manifest, err := idx.Write(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "indexed %s -> %s (%d %s shards + manifest)\n", *in, dir, len(manifest.Shards), manifest.Format)
	fmt.Fprintf(out, "  indexing time: %v\n", elapsed)
	fmt.Fprintf(out, "  memory:        %.1f MB (live heap of the built index)\n", mem)
	fmt.Fprintf(out, "  index:         %.1f MB (shard bytes)\n", float64(idx.SizeBytes())/(1<<20))
	fmt.Fprintf(out, "  #nodes:        %d (depth %d, max α %.4g)\n", manifest.TotalNodes(), manifest.Depth(), manifest.MaxAlpha())
	return nil
}

// checkJournal fails when the default journal of the index in dir holds a
// record past stamp, the network file's journal seq, for the network the
// index is opened as — named as tcupdate and tcquery name it
// (federation.SafeName), which is tcserver's name for every name it accepts.
func checkJournal(dir string, stamp uint64) error {
	jdir, err := replication.JournalDir(dir)
	if err != nil {
		return err
	}
	if _, err := os.Stat(jdir); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	name := federation.SafeName(federation.NetworkName(abs))
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	rd := j.Range(stamp)
	defer rd.Close()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if rec.Network == name {
			return fmt.Errorf("the journal %s holds update seq %d of network %s, past the network file's stamp %d: replay it by opening the pair writable (tcupdate or tcserver), or delete the journal if the network file was regenerated", jdir, rec.Seq, name, stamp)
		}
	}
}
