// Command tcupdate sends a network delta (added/removed edges and
// transactions, new or tombstoned vertices) to a tcserver, which rebuilds only
// the index shards the delta can affect instead of re-indexing.
//
// There is one update path. -net and -index open the pair writable, as tcserver
// -tree X -net Y does, on an in-process loopback listener that the delta is
// POSTed to as -server POSTs it (body capped at 16 MiB; no client timeout).
// The update is journaled in journal/ beside the index, as on that server,
// and checkpointed into -net and the index before tcupdate exits; a failed
// checkpoint is an error, and the next writable open replays the update.
// Regenerating the network file means deleting that journal. A -delta file
// (TCDELTA format) is local-only; its names resolve first.
//
//	tcupdate -net bk.dbnet -index bk.index -delta changes.tcdelta
//	tcupdate -net bk.dbnet -index bk.index -addedges 3-17,4-17 -addtx "17:coffee,tea"
//	tcupdate -server http://localhost:8080 -network bk -addedges 3-17 -addtx "17:coffee"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"themecomm/internal/client"
	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/server"
)

// errUsage marks a command line the flag set rejected and already explained.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcupdate: ")
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// run parses the command line and sends the update, reporting it to out.
func run(args []string, out io.Writer) error {
	req := &server.UpdateRequest{}
	fs := flag.NewFlagSet("tcupdate", flag.ContinueOnError)
	netPath := fs.String("net", "", "database network file the index was built from, written back after the update (required unless -server)")
	indexPath := fs.String("index", "", "index directory built by tcindex (required unless -server)")
	deltaPath := fs.String("delta", "", "delta file in the TCDELTA text format (not with -server)")
	fs.IntVar(&req.AddVertices, "addvertices", 0, "number of new vertices to add")
	fs.Var(list[[2]int]{&req.AddEdges, ",", parseEdge}, "addedges", "edges to add, comma-separated u-v pairs (e.g. 3-17,4-17)")
	fs.Var(list[[2]int]{&req.RemoveEdges, ",", parseEdge}, "rmedges", "edges to remove, comma-separated u-v pairs")
	fs.Var(list[server.UpdateTransaction]{&req.AddTransactions, ";", parseTransaction}, "addtx", "transactions to add, semicolon-separated vertex:item,item,... entries; items are names (new ones are interned) or numeric ids")
	fs.Var(list[server.UpdateTransaction]{&req.RemoveTransactions, ";", parseTransaction}, "rmtx", "transactions to remove, semicolon-separated vertex:item,item,... entries")
	fs.Var(list[int]{&req.RemoveVertices, ",", parseVertex}, "rmvertices", "vertices to tombstone, comma-separated ids")
	serverURL := fs.String("server", "", "POST the delta to the tcserver at this base URL instead of updating a local index")
	network := fs.String("network", "", "federation network to update (with -server)")
	requestID := fs.String("requestid", "", "X-Request-ID to send; the server echoes it and stamps it on its logs")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err) // flag.ErrHelp for -h
	}

	ctx, base, copts := context.Background(), *serverURL, client.Options{RequestID: *requestID}
	var local *server.Local
	switch {
	case base != "" && *deltaPath != "":
		return errors.New("-delta cannot be combined with -server; pass the change through the flags")
	case base == "" && (*netPath == "" || *indexPath == ""):
		fmt.Fprintln(fs.Output(), "tcupdate: -net and -index, or -server, are required")
		fs.Usage()
		return errUsage
	case base == "":
		var err error
		if local, err = server.ServeLocal(*indexPath, *netPath, 0, false); err != nil {
			return err
		}
		if *deltaPath != "" {
			// The file's names resolve against a copy of the dictionary —
			// attaching padded it to the item universe, so a new name never
			// aliases an existing unnamed item — and the names it introduces
			// go to the server as names, which journals them with the update.
			dict := local.Network.Dictionary()
			names := itemset.NewDictionary()
			names.InternAll(dict.Names(dict.Universe()))
			d, err := delta.ReadFile(*deltaPath, names)
			if err != nil {
				local.Close(ctx)
				return err
			}
			req = prepend(d, req, func(it itemset.Item) string {
				if name, err := names.Name(it); err == nil && int(it) >= dict.Len() {
					return name
				}
				return strconv.Itoa(int(it)) // a known item, or a numeric id past every name
			})
		}
		base, copts.HTTPClient = local.URL, &http.Client{}
	}

	resp, err := client.New(base, copts).Update(ctx, *network, req)
	if local != nil {
		if cerr := local.Close(ctx); cerr != nil && err == nil {
			return fmt.Errorf("the update is journaled at seq %d and will be replayed on the next writable open of %s, but its checkpoint failed: %w", resp.JournalSeq, *indexPath, cerr)
		}
	}
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.Location != "":
		return fmt.Errorf("%w\nretry against the primary: tcupdate -server %s", err, strings.TrimSuffix(apiErr.Location, "/api/v1/update"))
	case err != nil:
		return err
	}
	fmt.Fprintf(out, "applied delta to %s in %dµs (index epoch %d)\n", resp.Network, resp.UpdateMicros, resp.IndexEpoch)
	fmt.Fprintf(out, "  affected items:  %v (%d replaced, %d added, %d removed shards)\n",
		resp.AffectedItems, resp.ReplacedShards, resp.AddedShards, resp.RemovedShards)
	fmt.Fprintf(out, "  journal seq:     %d\n", resp.JournalSeq)
	return nil
}

// prepend returns req with the delta file's changes ahead of the flags',
// items rendered by item.
func prepend(d *delta.Delta, req *server.UpdateRequest, item func(itemset.Item) string) *server.UpdateRequest {
	vertex := func(v graph.VertexID) int { return int(v) }
	edge := func(e graph.Edge) [2]int { return [2]int{int(e.U), int(e.V)} }
	tx := func(vt delta.VertexTransaction) server.UpdateTransaction {
		return server.UpdateTransaction{Vertex: int(vt.Vertex), Items: mapAppend(vt.Tx, item, nil)}
	}
	return &server.UpdateRequest{
		AddVertices:        d.AddVertices + req.AddVertices,
		RemoveVertices:     mapAppend(d.RemoveVertices, vertex, req.RemoveVertices),
		AddEdges:           mapAppend(d.AddEdges, edge, req.AddEdges),
		RemoveEdges:        mapAppend(d.RemoveEdges, edge, req.RemoveEdges),
		AddTransactions:    mapAppend(d.AddTransactions, tx, req.AddTransactions),
		RemoveTransactions: mapAppend(d.RemoveTransactions, tx, req.RemoveTransactions),
	}
}

// mapAppend returns f over xs followed by tail.
func mapAppend[T, U any](xs []T, f func(T) U, tail []U) []U {
	var out []U
	for _, x := range xs {
		out = append(out, f(x))
	}
	return append(out, tail...)
}

// list is a flag holding a separated list: Set parses each trimmed,
// non-empty field into the request field dst.
type list[T any] struct {
	dst   *[]T
	sep   string
	parse func(string) (T, error)
}

func (l list[T]) String() string { return "" }

func (l list[T]) Set(raw string) error {
	for _, field := range fields(raw, l.sep) {
		x, err := l.parse(field)
		if err != nil {
			return err
		}
		*l.dst = append(*l.dst, x)
	}
	return nil
}

// parseVertex parses one vertex id.
func parseVertex(field string) (int, error) {
	v, err := graph.ParseVertex(strings.TrimSpace(field))
	return int(v), err
}

// parseEdge parses one u-v pair.
func parseEdge(field string) ([2]int, error) {
	u, v, _ := strings.Cut(field, "-")
	a, err1 := strconv.Atoi(strings.TrimSpace(u))
	b, err2 := strconv.Atoi(strings.TrimSpace(v))
	if _, err := graph.CheckedEdge(a, b); err1 != nil || err2 != nil || err != nil {
		return [2]int{}, fmt.Errorf("invalid edge %q: want a u-v pair of distinct vertices", field)
	}
	return [2]int{a, b}, nil
}

// parseTransaction parses one vertex:item,item,... entry; the server resolves the items.
func parseTransaction(field string) (server.UpdateTransaction, error) {
	vs, rest, _ := strings.Cut(field, ":")
	v, err := parseVertex(vs)
	items := fields(rest, ",")
	if err != nil || len(items) == 0 {
		return server.UpdateTransaction{}, fmt.Errorf("invalid transaction %q: want vertex:item,item,...", field)
	}
	return server.UpdateTransaction{Vertex: v, Items: items}, nil
}

// fields splits a separated list into its trimmed, non-empty fields.
func fields(raw, sep string) []string {
	var out []string
	for _, field := range strings.Split(raw, sep) {
		if field = strings.TrimSpace(field); field != "" {
			out = append(out, field)
		}
	}
	return out
}
