// Command tcquery answers theme-community queries against a TC-Tree built by
// tcindex: query by cohesion threshold (QBA), by pattern (QBP), or both.
// Queries run through the engine's planner: shards whose α* bound proves an
// empty answer at α_q are skipped from catalogue metadata alone, and -topk
// ranks the answer by cohesion. -contains flips the query to containment
// semantics — the indexed patterns that contain the query pattern — where the
// per-shard item bloom filters skip shards that cannot hold a superset.
// -explain prints the per-shard plan and the observed execution counters
// instead of the communities; -stream prints communities as they are
// produced, and -limit pages the answer (resume with the printed -cursor).
//
// There is one query path. -tree opens the index the way tcserver -tree
// does — a one-network federation, served on an in-process loopback listener
// — and the query goes through the same HTTP client and renderer as with
// -server, which asks a running tcserver instead. When -tree is a networks
// directory (the layout tcserver -networks serves), -network selects the
// index and its sibling <name>.dbnet resolves item names; with -server it
// picks the tenant. -requestid sets the X-Request-ID the server echoes and
// logs; on a server error the request ID is printed with the message.
//
// Usage:
//
//	tcquery -tree bk.index -net bk.dbnet -pattern "hangout-c3-0,hangout-c3-1" -alpha 0.2
//	tcquery -tree bk.index -alpha 0.2 -topk 10 -workers 8
//	tcquery -tree bk.index -alpha 0.4 -explain
//	tcquery -tree bk.index -pattern "hangout-c3-0" -alpha 0.2 -contains
//	tcquery -tree bk.index -alpha 0.2 -topk 5 -stream
//	tcquery -tree warehouse/ -network bk -alpha 0.2 -limit 10
//	tcquery -server http://localhost:8080 -network bk -alpha 0.2 -requestid probe-1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"themecomm/internal/client"
	"themecomm/internal/federation"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// errUsage marks a command line the flag set rejected; it has already
// printed why.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcquery: ")
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// run parses the command line and answers the query, printing to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tcquery", flag.ContinueOnError)
	treePath := fs.String("tree", "", "index directory built by tcindex, or networks directory (this or -server is required)")
	network := fs.String("network", "", "network to query: a tenant of -server, or an index of the networks directory -tree")
	netPath := fs.String("net", "", "database network file of -tree; needed to resolve item names in -pattern")
	alphaQ := fs.Float64("alpha", 0, "query cohesion threshold α_q")
	pattern := fs.String("pattern", "", "comma-separated query pattern (item names or numeric ids); empty = all items")
	top := fs.Int("top", 20, "number of communities to print (0 = all)")
	topK := fs.Int("topk", 0, "rank communities by cohesion then size and keep the k best (0 = plain query)")
	workers := fs.Int("workers", 0, "with -tree: shard-traversal parallelism (0 = GOMAXPROCS)")
	contains := fs.Bool("contains", false, "containment query: answer with the indexed patterns that CONTAIN -pattern (supersets) instead of the sub-patterns it contains")
	explain := fs.Bool("explain", false, "print the query plan and execution counters instead of the communities")
	serverURL := fs.String("server", "", "query a running tcserver at this base URL (e.g. http://localhost:8080) instead of opening -tree")
	requestID := fs.String("requestid", "", "X-Request-ID to send; the server echoes it and stamps it on its logs")
	stream := fs.Bool("stream", false, "stream the answer as it is produced (NDJSON) instead of waiting for the full response")
	cursor := fs.String("cursor", "", "resume a paginated answer from this cursor (printed by a previous -limit run)")
	limit := fs.Int("limit", 0, "page size; the answer carries a cursor when more communities remain (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err) // flag.ErrHelp for -h
	}

	if *contains && (*topK > 0 || *stream || *cursor != "" || *limit > 0) {
		return errors.New("-contains answers are not rankable or pageable; drop -topk, -stream, -cursor and -limit")
	}
	if *explain && (*topK > 0 || *stream || *cursor != "" || *limit > 0) {
		return errors.New("-explain cannot be combined with -topk, -stream, -cursor or -limit")
	}
	base, label := *serverURL, *serverURL
	if base == "" {
		if *treePath == "" {
			fmt.Fprintln(fs.Output(), "tcquery: -tree or -server is required")
			fs.Usage()
			return errUsage
		}
		indexPath, netPath, err := resolveNetwork(*treePath, *network, *netPath)
		if err != nil {
			return err
		}
		// Read-only: a query never writes the index or the network file.
		local, err := server.ServeLocal(indexPath, netPath, *workers, true)
		if err != nil {
			return err
		}
		defer local.Close(context.Background())
		base, label = local.URL, *treePath
	}
	c := client.New(base, client.Options{RequestID: *requestID})
	q := client.Query{
		Network:  *network,
		Pattern:  *pattern,
		Alpha:    *alphaQ,
		K:        *topK,
		Contains: *contains,
		Cursor:   *cursor,
		Limit:    *limit,
	}
	return answer(out, c, q, label, *top, *explain, *stream)
}

// resolveNetwork maps -tree/-network onto one index path and its database
// network file. An index directory (or anything that is not a directory:
// AttachIndexDir reports what is wrong with it) passes through untouched; a
// networks directory (several indexes side by side, as served by tcserver
// -networks) resolves through -network — required unless the directory holds
// exactly one network — and supplies the network's sibling .dbnet file when
// -net was not given.
func resolveNetwork(treePath, network, netPath string) (indexPath, networkPath string, err error) {
	st, err := os.Stat(treePath)
	if err != nil || !st.IsDir() || tctree.IsSharded(treePath) {
		if network != "" {
			return "", "", fmt.Errorf("-network %s needs -tree to be a networks directory, not an index", network)
		}
		return treePath, netPath, nil
	}
	nets, err := federation.DiscoverNetworks(treePath)
	if err != nil {
		return "", "", err
	}
	names := make([]string, len(nets))
	pick := -1
	for i, d := range nets {
		names[i] = d.Name
		if d.Name == network || network == "" && len(nets) == 1 {
			pick = i
		}
	}
	switch {
	case pick < 0 && network != "":
		return "", "", fmt.Errorf("no network %q in %s (available: %s)", network, treePath, strings.Join(names, ", "))
	case pick < 0:
		return "", "", fmt.Errorf("%s holds %d networks; pick one with -network (available: %s)", treePath, len(nets), strings.Join(names, ", "))
	case netPath == "":
		netPath = nets[pick].NetworkPath
	}
	return nets[pick].IndexPath, netPath, nil
}
