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
// Usage:
//
//	tcindex -in bk.dbnet -out bk.index
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"themecomm"
	"themecomm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcindex: ")

	in := flag.String("in", "", "input database network file (required)")
	out := flag.String("out", "", "output index directory (defaults to <in> with .dbnet replaced by .index)")
	workers := flag.Int("workers", 0, "parallelism of the first tree level (0 = GOMAXPROCS)")
	maxDepth := flag.Int("maxdepth", 0, "maximum indexed pattern length (0 = unbounded)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	dir := *out
	if dir == "" {
		dir = strings.TrimSuffix(*in, ".dbnet") + ".index"
	}
	nw, _, err := themecomm.ReadNetworkFile(*in)
	if err != nil {
		log.Fatal(err)
	}

	idx, elapsed, mem, err := experiments.MeasureBuild(nw, themecomm.TreeBuildOptions{Parallelism: *workers, MaxDepth: *maxDepth})
	if err != nil {
		log.Fatal(err)
	}
	manifest, err := idx.Write(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %s -> %s (%d %s shards + manifest)\n", *in, dir, len(manifest.Shards), manifest.Format)
	fmt.Printf("  indexing time: %v\n", elapsed)
	fmt.Printf("  memory:        %.1f MB (live heap of the built index)\n", mem)
	fmt.Printf("  index:         %.1f MB (shard bytes)\n", float64(idx.SizeBytes())/(1<<20))
	fmt.Printf("  #nodes:        %d (depth %d, max α %.4g)\n", manifest.TotalNodes(), manifest.Depth(), manifest.MaxAlpha())
}
