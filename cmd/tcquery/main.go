// Command tcquery answers theme-community queries against a TC-Tree built by
// tcindex: query by cohesion threshold (QBA), by pattern (QBP), or both.
// Queries run through the engine's planner: shards whose α* bound proves an
// empty answer at α_q are skipped from catalogue metadata alone,
// and -topk ranks the answer by cohesion. -contains flips the query to
// containment semantics — retrieve the indexed patterns that contain the
// query pattern — where the catalogue's per-shard bloom filters and α-depth
// histograms skip shards that cannot hold a superset. Only the shards the
// query touches — and the planner cannot skip — are read from the index
// directory. -explain prints the per-shard plan (skip/scan decisions, the
// schedule) and the observed execution counters instead of the communities.
//
// Against a networks directory (the layout tcserver -networks serves:
// several indexes side by side), -network selects which indexed network to
// query; the network's sibling <name>.dbnet file, when present, resolves
// item names automatically.
//
// With -server the query is answered by a running tcserver over HTTP instead
// of opening an index locally: -network picks the federation tenant,
// -requestid injects an X-Request-ID the server echoes and stamps on its
// access/slow-query logs, and on a server error the server-assigned request
// ID is printed with the message so the failure can be grepped out of the
// server's logs.
//
// Usage:
//
//	tcquery -tree bk.index -alpha 0.5
//	tcquery -tree bk.index -net bk.dbnet -pattern "hangout-c3-0,hangout-c3-1" -alpha 0.2
//	tcquery -tree bk.index -alpha 0.2 -topk 10 -workers 8
//	tcquery -tree bk.index -alpha 0.4 -explain
//	tcquery -tree bk.index -pattern "hangout-c3-0" -alpha 0.2 -contains
//	tcquery -tree warehouse/ -network bk -alpha 0.2
//	tcquery -server http://localhost:8080 -alpha 0.2 -topk 5
//	tcquery -server http://localhost:8080 -network bk -alpha 0.2 -requestid probe-1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"themecomm"
	"themecomm/internal/engine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcquery: ")

	treePath := flag.String("tree", "", "index directory built by tcindex, or networks directory (required)")
	network := flag.String("network", "", "network to query when -tree is a networks directory holding several indexes")
	netPath := flag.String("net", "", "database network file; needed to resolve item names in -pattern")
	alphaQ := flag.Float64("alpha", 0, "query cohesion threshold α_q")
	pattern := flag.String("pattern", "", "comma-separated query pattern (item names or numeric ids); empty = all items")
	top := flag.Int("top", 20, "number of communities to print (0 = all)")
	topK := flag.Int("topk", 0, "rank communities by cohesion then size and keep the k best (0 = plain query)")
	workers := flag.Int("workers", 0, "shard-traversal parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "result-cache entries (0 disables caching)")
	contains := flag.Bool("contains", false, "containment query: answer with the indexed patterns that CONTAIN -pattern (supersets) instead of the sub-patterns it contains")
	explain := flag.Bool("explain", false, "print the query plan and execution counters instead of the communities")
	serverURL := flag.String("server", "", "query a running tcserver at this base URL (e.g. http://localhost:8080) instead of opening an index")
	requestID := flag.String("requestid", "", "X-Request-ID to send with -server; the server echoes it and stamps it on its logs")
	stream := flag.Bool("stream", false, "with -server: stream the answer as it is produced (NDJSON) instead of waiting for the full response")
	cursor := flag.String("cursor", "", "with -server: resume a paginated answer from this cursor (printed by a previous -limit run)")
	limitFlag := flag.Int("limit", 0, "with -server: page size; the response carries a cursor when more communities remain (0 = no limit)")
	flag.Parse()

	if *contains && (*topK > 0 || *stream || *cursor != "" || *limitFlag > 0) {
		log.Fatal("-contains answers are not rankable or pageable; drop -topk, -stream, -cursor and -limit")
	}
	if *serverURL != "" {
		runRemote(*serverURL, *network, *pattern, *alphaQ, *topK, *top, *explain, *contains, *requestID,
			*stream, *cursor, *limitFlag)
		return
	}
	if *stream || *cursor != "" || *limitFlag > 0 {
		log.Fatal("-stream, -cursor and -limit need -server (streaming is an HTTP API feature)")
	}
	if *treePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	indexPath := resolveNetwork(*treePath, *network, netPath)
	eng, err := themecomm.OpenEngine(indexPath, themecomm.EngineOptions{
		Workers:   *workers,
		CacheSize: *cacheSize,
	})
	if err != nil {
		log.Fatal(err)
	}

	var dict *themecomm.Dictionary
	if *netPath != "" {
		_, d, err := themecomm.ReadNetworkFile(*netPath)
		if err != nil {
			log.Fatal(err)
		}
		dict = d
	}

	// nil query pattern = every item (query by alpha).
	var q themecomm.Itemset
	if *pattern != "" {
		q, err = parsePattern(*pattern, dict)
		if err != nil {
			log.Fatal(err)
		}
	}

	themeOf := func(p themecomm.Itemset) string {
		if dict != nil && dict.Len() > 0 {
			return strings.Join(dict.Names(p), ", ")
		}
		return p.String()
	}

	if *explain {
		printExplain(eng, q, *alphaQ, *contains)
		return
	}

	if *topK > 0 {
		qr, ranked, err := eng.TopKWithResult(q, *alphaQ, *topK)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query answered in %v: %d maximal pattern trusses (visited %d nodes)\n",
			qr.Duration, qr.RetrievedNodes, qr.VisitedNodes)
		fmt.Printf("top %d theme communities by cohesion\n", len(ranked))
		for i, rc := range ranked {
			fmt.Printf("  [%d] cohesion=%.4g theme={%s} vertices=%v\n",
				i+1, rc.Cohesion, themeOf(rc.Pattern), rc.Vertices)
		}
		return
	}

	var qr *themecomm.EngineAnswer
	if *contains {
		qr, err = eng.QueryContaining(q, *alphaQ)
	} else {
		qr, err = eng.Query(q, *alphaQ)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query answered in %v: %d maximal pattern trusses (visited %d nodes)\n",
		qr.Duration, qr.RetrievedNodes, qr.VisitedNodes)
	comms := qr.Communities
	fmt.Printf("%d theme communities\n", len(comms))
	limit := *top
	if limit <= 0 || limit > len(comms) {
		limit = len(comms)
	}
	for i := 0; i < limit; i++ {
		c := comms[i]
		fmt.Printf("  [%d] theme={%s} vertices=%v\n", i+1, themeOf(c.Pattern), c.Vertices)
	}
	if limit < len(comms) {
		fmt.Printf("  ... %d more (raise -top to see them)\n", len(comms)-limit)
	}
}

// resolveNetwork maps -tree/-network onto one index path. An index directory
// (or anything that is not a directory: OpenEngine reports what is wrong
// with it) passes through untouched; a networks directory
// (several indexes side by side, as served by tcserver -networks) resolves
// through -network — required unless the directory holds exactly one
// network — and supplies the network's sibling .dbnet dictionary when -net
// was not given.
func resolveNetwork(treePath, network string, netPath *string) string {
	st, err := os.Stat(treePath)
	if err != nil || !st.IsDir() || themecomm.IsShardedIndex(treePath) {
		if network != "" {
			log.Fatalf("-network %s needs -tree to be a networks directory, not an index", network)
		}
		return treePath
	}
	nets, err := themecomm.DiscoverNetworks(treePath)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(nets))
	for i, d := range nets {
		names[i] = d.Name
	}
	var pick *themecomm.DiscoveredNetwork
	switch {
	case network != "":
		for i := range nets {
			if nets[i].Name == network {
				pick = &nets[i]
				break
			}
		}
		if pick == nil {
			log.Fatalf("no network %q in %s (available: %s)", network, treePath, strings.Join(names, ", "))
		}
	case len(nets) == 1:
		pick = &nets[0]
	default:
		log.Fatalf("%s holds %d networks; pick one with -network (available: %s)", treePath, len(nets), strings.Join(names, ", "))
	}
	if *netPath == "" {
		*netPath = pick.NetworkPath
	}
	return pick.IndexPath
}

// printExplain runs the query through Engine.ExplainContext (in containment
// mode with -contains) and prints the per-shard decisions, the schedule and
// the post-execution counters.
func printExplain(eng *themecomm.Engine, q themecomm.Itemset, alphaQ float64, contains bool) {
	mode := engine.ModeSub
	if contains {
		mode = engine.ModeContaining
	}
	rep, err := eng.ExplainContext(context.Background(), q, alphaQ, mode)
	if err != nil {
		log.Fatal(err)
	}
	printExplainReport(rep)
}

// printExplainReport renders one plan + execution report (local or fetched
// from a server with -server -explain).
func printExplainReport(rep *themecomm.EngineExplain) {
	pattern := "every item (query by alpha)"
	if !rep.Full {
		pattern = rep.Pattern.String()
	}
	if rep.Mode != "" {
		pattern += ", " + string(rep.Mode)
	}
	fmt.Printf("plan for pattern %s at α_q=%g (%d workers, lazy=%v)\n",
		pattern, rep.Alpha, rep.Workers, rep.Lazy)
	fmt.Printf("%d shards: %d scanned, %d skipped by α*, %d not in query\n",
		rep.Shards, len(rep.ScheduleOrder), rep.SkippedAlpha, rep.SkippedAbsent)
	if rep.SkippedBloom > 0 || rep.SkippedHist > 0 {
		fmt.Printf("catalogue skips: %d by item bloom filter, %d by α-depth histogram\n",
			rep.SkippedBloom, rep.SkippedHist)
	}
	if len(rep.ScheduleOrder) > 0 {
		order := make([]string, len(rep.ScheduleOrder))
		for i, it := range rep.ScheduleOrder {
			order[i] = strconv.Itoa(int(it))
		}
		fmt.Printf("schedule: %s\n", strings.Join(order, ", "))
	}
	for _, task := range rep.Tasks {
		line := fmt.Sprintf("  shard %-6d %-11s nodes=%-6d α*=%-8.4g", task.Item, task.Decision, task.Nodes, task.MaxAlpha)
		if !task.Decision.Skipped() {
			line += fmt.Sprintf(" %4dµs visited=%d trusses=%d", task.Micros, task.Visited, task.Trusses)
			if task.Loaded {
				line += " (loaded)"
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("executed in %dµs: %d trusses retrieved, %d nodes visited; loads=%d\n",
		rep.Micros, rep.RetrievedNodes, rep.VisitedNodes, rep.Loaded)
}

// parsePattern turns a comma-separated list of item names or numeric ids into
// an itemset, resolving names through the dictionary when one is available.
func parsePattern(s string, dict *themecomm.Dictionary) (themecomm.Itemset, error) {
	var items []themecomm.Item
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if id, err := strconv.Atoi(field); err == nil {
			items = append(items, themecomm.Item(id))
			continue
		}
		if dict == nil {
			return nil, fmt.Errorf("item %q is not numeric and no -net file was given to resolve names", field)
		}
		id, ok := dict.Lookup(field)
		if !ok {
			return nil, fmt.Errorf("unknown item name %q", field)
		}
		items = append(items, id)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty query pattern %q", s)
	}
	return themecomm.NewItemset(items...), nil
}
