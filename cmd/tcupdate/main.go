// Command tcupdate incrementally maintains a TC-Tree index after its
// database network changes: it applies a network delta (added/removed edges,
// added/removed transactions, new or tombstoned vertices) to the network,
// rebuilds only the index shards the delta can affect, and persists the
// update — no full re-index. It takes the one write route a tcserver without
// -journal takes (federation.Network.ApplyDelta): a lazy engine over the
// index applies the delta in memory, then a checkpoint writes the updated
// network back first and commits the rebuilt shards with a single durable
// manifest write. Both files keep their journal-seq stamps, so a journaled
// tcserver started on them later recovers as if no offline update happened.
//
// The delta comes from a delta file (see internal/delta for the TCDELTA text
// format), from the command-line flags, or both:
//
//	tcupdate -net bk.dbnet -index bk.index -delta changes.tcdelta
//	tcupdate -net bk.dbnet -index bk.index -addedges 3-17,4-17 -addtx "17:coffee,tea"
//	tcupdate -net bk.dbnet -index bk.index -rmedges 3-4 -outnet bk-next.dbnet
//
// With -server the delta is instead POSTed to a running tcserver, which does
// the same maintenance in one step against its live index (and, on a
// replication primary, journals the delta for its replicas):
//
//	tcupdate -server http://localhost:8080 -network bk -addedges 3-17 -addtx "17:coffee"
//
// Flags -addedges and -rmedges take comma-separated u-v vertex pairs;
// -addtx and -rmtx take semicolon-separated vertex:item,item,... transactions
// whose items are names (resolved — and, for new items, interned — through
// the network's dictionary) or numeric identifiers; -rmvertices takes
// comma-separated vertex ids to tombstone.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"themecomm"
	"themecomm/internal/client"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcupdate: ")

	netPath := flag.String("net", "", "database network file the index was built from (required unless -server)")
	indexPath := flag.String("index", "", "index directory built by tcindex (required unless -server)")
	deltaPath := flag.String("delta", "", "delta file in the TCDELTA text format")
	addVertices := flag.Int("addvertices", 0, "number of new vertices to add")
	addEdges := flag.String("addedges", "", "edges to add, comma-separated u-v pairs (e.g. 3-17,4-17)")
	rmEdges := flag.String("rmedges", "", "edges to remove, comma-separated u-v pairs")
	addTx := flag.String("addtx", "", "transactions to add, semicolon-separated vertex:item,item,... entries")
	rmTx := flag.String("rmtx", "", "transactions to remove, semicolon-separated vertex:item,item,... entries")
	rmVertices := flag.String("rmvertices", "", "vertices to tombstone, comma-separated ids")
	outNet := flag.String("outnet", "", "write the updated network here (default: overwrite -net)")
	serverURL := flag.String("server", "", "POST the delta to the tcserver at this base URL instead of updating a local index")
	network := flag.String("network", "", "federation network to update (with -server)")
	requestID := flag.String("requestid", "", "correlation ID sent with the remote update (with -server)")
	flag.Parse()

	if *serverURL != "" {
		runRemoteUpdate(*serverURL, *network, *requestID, *deltaPath, *addVertices,
			*addEdges, *rmEdges, *addTx, *rmTx, *rmVertices)
		return
	}

	if *netPath == "" || *indexPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	nw, dict, err := themecomm.ReadNetworkFile(*netPath)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := themecomm.OpenShardedIndex(*indexPath)
	if err != nil {
		log.Fatal(err)
	}
	out := *outNet
	if out == "" {
		out = *netPath
	}
	// Attaching pads the dictionary to the whole item universe before delta
	// item names are interned, so a new name can never alias an existing
	// unnamed item.
	fed := federation.New(federation.Options{})
	opts := federation.NetworkOptions{Dictionary: dict, Network: nw, NetworkPath: out}
	if err := fed.AttachIndex("index", idx, opts); err != nil {
		log.Fatal(err)
	}
	tenant, _ := fed.Network("index")
	d := &delta.Delta{AddVertices: *addVertices}
	if *deltaPath != "" {
		fromFile, err := delta.ReadFile(*deltaPath, dict)
		if err != nil {
			log.Fatal(err)
		}
		d.AddVertices += fromFile.AddVertices
		d.AddEdges = append(d.AddEdges, fromFile.AddEdges...)
		d.RemoveEdges = append(d.RemoveEdges, fromFile.RemoveEdges...)
		d.AddTransactions = append(d.AddTransactions, fromFile.AddTransactions...)
		d.RemoveTransactions = append(d.RemoveTransactions, fromFile.RemoveTransactions...)
		d.RemoveVertices = append(d.RemoveVertices, fromFile.RemoveVertices...)
	}
	if d.AddEdges, err = appendEdges(d.AddEdges, *addEdges); err != nil {
		log.Fatalf("-addedges: %v", err)
	}
	if d.RemoveEdges, err = appendEdges(d.RemoveEdges, *rmEdges); err != nil {
		log.Fatalf("-rmedges: %v", err)
	}
	if d.AddTransactions, err = appendTransactions(d.AddTransactions, *addTx, dict); err != nil {
		log.Fatalf("-addtx: %v", err)
	}
	if d.RemoveTransactions, err = appendTransactions(d.RemoveTransactions, *rmTx, dict); err != nil {
		log.Fatalf("-rmtx: %v", err)
	}
	if d.RemoveVertices, err = appendVertices(d.RemoveVertices, *rmVertices); err != nil {
		log.Fatalf("-rmvertices: %v", err)
	}
	if d.Empty() {
		log.Fatal("empty delta: give -delta, -addvertices, -addedges, -rmedges, -addtx, -rmtx or -rmvertices")
	}

	res, err := tenant.ApplyDelta(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied %s to %s in %v\n", d, *indexPath, res.Duration.Round(time.Microsecond))
	fmt.Printf("  affected items:  %d of %d shards (%d replaced, %d added, %d removed)\n",
		res.Affected.Len(), idx.NumShards(), len(res.Report.Replaced), len(res.Report.Added), len(res.Report.Removed))
	fmt.Printf("  network:         %s (|V|=%d, |E|=%d)\n", out, nw.NumVertices(), nw.NumEdges())
}

// runRemoteUpdate builds the update request from the flags and POSTs it
// through the typed API client. Item names travel as-is: the server resolves
// them through its own dictionary, exactly like a local run resolves them
// through the network file's.
func runRemoteUpdate(base, network, requestID, deltaPath string, addVertices int,
	addEdges, rmEdges, addTx, rmTx, rmVertices string) {
	if deltaPath != "" {
		log.Fatal("-delta cannot be combined with -server; pass the change through the flags")
	}
	req := &server.UpdateRequest{AddVertices: addVertices}
	var err error
	if req.AddEdges, err = appendEdgePairs(nil, addEdges); err != nil {
		log.Fatalf("-addedges: %v", err)
	}
	if req.RemoveEdges, err = appendEdgePairs(nil, rmEdges); err != nil {
		log.Fatalf("-rmedges: %v", err)
	}
	if req.AddTransactions, err = appendTxEntries(nil, addTx); err != nil {
		log.Fatalf("-addtx: %v", err)
	}
	if req.RemoveTransactions, err = appendTxEntries(nil, rmTx); err != nil {
		log.Fatalf("-rmtx: %v", err)
	}
	for _, field := range splitFields(rmVertices, ",") {
		v, err := strconv.Atoi(field)
		if err != nil || v < 0 || v > math.MaxInt32 {
			log.Fatalf("-rmvertices: invalid vertex %q", field)
		}
		req.RemoveVertices = append(req.RemoveVertices, v)
	}

	c := client.New(base, client.Options{RequestID: requestID})
	resp, err := c.Update(context.Background(), network, req)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Location != "" {
			log.Fatalf("%v\nretry against the primary: tcupdate -server %s", err, strings.TrimSuffix(apiErr.Location, "/api/v1/update"))
		}
		log.Fatal(err)
	}
	target := network
	if target == "" {
		target = base
	}
	fmt.Printf("applied delta to %s in %dµs (index epoch %d)\n", target, resp.UpdateMicros, resp.IndexEpoch)
	fmt.Printf("  affected items:  %v (%d replaced, %d added, %d removed shards)\n",
		resp.AffectedItems, resp.ReplacedShards, resp.AddedShards, resp.RemovedShards)
	if resp.JournalSeq > 0 {
		fmt.Printf("  journal seq:     %d (journaled on the primary; replicas will replay it)\n", resp.JournalSeq)
	}
	if resp.Warning != "" {
		fmt.Printf("  warning:         %s\n", resp.Warning)
	}
}

// splitFields splits and trims a separated list, dropping empties.
func splitFields(raw, sep string) []string {
	var out []string
	for _, field := range strings.Split(raw, sep) {
		if field = strings.TrimSpace(field); field != "" {
			out = append(out, field)
		}
	}
	return out
}

// parseEdgePair parses one u-v pair.
func parseEdgePair(field string) (int, int, error) {
	u, v, ok := strings.Cut(field, "-")
	if !ok {
		return 0, 0, fmt.Errorf("edge %q is not a u-v pair", field)
	}
	a, err1 := strconv.Atoi(strings.TrimSpace(u))
	b, err2 := strconv.Atoi(strings.TrimSpace(v))
	if err1 != nil || err2 != nil || a == b ||
		a < 0 || a > math.MaxInt32 || b < 0 || b > math.MaxInt32 {
		return 0, 0, fmt.Errorf("invalid edge %q", field)
	}
	return a, b, nil
}

// appendEdges parses a comma-separated list of u-v pairs into graph edges.
func appendEdges(edges []graph.Edge, raw string) ([]graph.Edge, error) {
	for _, field := range splitFields(raw, ",") {
		a, b, err := parseEdgePair(field)
		if err != nil {
			return nil, err
		}
		edges = append(edges, graph.EdgeOf(graph.VertexID(a), graph.VertexID(b)))
	}
	return edges, nil
}

// appendEdgePairs parses the same list into wire-format pairs.
func appendEdgePairs(edges [][2]int, raw string) ([][2]int, error) {
	for _, field := range splitFields(raw, ",") {
		a, b, err := parseEdgePair(field)
		if err != nil {
			return nil, err
		}
		edges = append(edges, [2]int{a, b})
	}
	return edges, nil
}

// appendVertices parses a comma-separated vertex id list.
func appendVertices(vs []graph.VertexID, raw string) ([]graph.VertexID, error) {
	for _, field := range splitFields(raw, ",") {
		v, err := strconv.Atoi(field)
		if err != nil || v < 0 || v > math.MaxInt32 {
			return nil, fmt.Errorf("invalid vertex %q", field)
		}
		vs = append(vs, graph.VertexID(v))
	}
	return vs, nil
}

// parseTxEntry parses one vertex:item,item,... entry into its vertex and raw
// item fields.
func parseTxEntry(field string) (int, []string, error) {
	vs, rest, ok := strings.Cut(field, ":")
	if !ok {
		return 0, nil, fmt.Errorf("transaction %q is not a vertex:items entry", field)
	}
	v, err := strconv.Atoi(strings.TrimSpace(vs))
	if err != nil || v < 0 || v > math.MaxInt32 {
		return 0, nil, fmt.Errorf("invalid vertex in %q", field)
	}
	items := splitFields(rest, ",")
	if len(items) == 0 {
		return 0, nil, fmt.Errorf("transaction %q has no items", field)
	}
	return v, items, nil
}

// appendTransactions parses semicolon-separated vertex:item,item,... entries,
// resolving items through the dictionary.
func appendTransactions(txs []delta.VertexTransaction, raw string, dict *itemset.Dictionary) ([]delta.VertexTransaction, error) {
	for _, field := range splitFields(raw, ";") {
		v, names, err := parseTxEntry(field)
		if err != nil {
			return nil, err
		}
		var items []itemset.Item
		for _, name := range names {
			it, err := delta.ResolveItem(name, dict)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		txs = append(txs, delta.VertexTransaction{Vertex: graph.VertexID(v), Tx: itemset.New(items...)})
	}
	return txs, nil
}

// appendTxEntries parses the same entries into wire-format transactions,
// leaving item names for the server to resolve.
func appendTxEntries(txs []server.UpdateTransaction, raw string) ([]server.UpdateTransaction, error) {
	for _, field := range splitFields(raw, ";") {
		v, names, err := parseTxEntry(field)
		if err != nil {
			return nil, err
		}
		txs = append(txs, server.UpdateTransaction{Vertex: v, Items: names})
	}
	return txs, nil
}
