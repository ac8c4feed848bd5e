package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"themecomm/internal/client"
	"themecomm/internal/server"
)

// answer asks the server behind c and prints its answer to out; label names
// the source in the header lines (the -server URL, or the -tree path served
// in-process). The typed API client (internal/client) does the wire work —
// request-ID plumbing, retry-on-5xx for these idempotent reads, and the JSON
// error envelope — so a failure prints the server-assigned request ID and
// can be found in the server's logs with one grep.
func answer(out io.Writer, c *client.Client, q client.Query, label string, top int, explain, stream bool) error {
	ctx := context.Background()
	if explain {
		rep, _, err := c.Explain(ctx, q)
		if err != nil {
			return err
		}
		if rep.Network != "" {
			fmt.Fprintf(out, "network %s\n", rep.Network)
		}
		printExplainReport(out, rep)
		return nil
	}
	if stream {
		return printStream(ctx, out, c, q, label)
	}

	qr, serverID, err := c.Do(ctx, q)
	if err != nil {
		return err
	}
	if serverID != "" { // a server without observability assigns no request id
		label += " (request id " + serverID + ")"
	}
	fmt.Fprintf(out, "query answered in %dµs by %s: %d maximal pattern trusses (visited %d nodes)\n",
		qr.QueryMicros, label, qr.RetrievedNodes, qr.VisitedNodes)
	if qr.TopK > 0 {
		fmt.Fprintf(out, "top %d theme communities by cohesion\n", len(qr.Communities))
		for i, c := range qr.Communities {
			fmt.Fprintf(out, "  [%d] cohesion=%.4g theme={%s} vertices=%v\n",
				i+1, c.Cohesion, strings.Join(c.Theme, ", "), c.Vertices)
		}
		printNextCursor(out, qr.NextCursor)
		return nil
	}
	fmt.Fprintf(out, "%d theme communities\n", len(qr.Communities))
	show := top
	if show <= 0 || show > len(qr.Communities) {
		show = len(qr.Communities)
	}
	for i := 0; i < show; i++ {
		c := qr.Communities[i]
		fmt.Fprintf(out, "  [%d] theme={%s} vertices=%v\n", i+1, strings.Join(c.Theme, ", "), c.Vertices)
	}
	if show < len(qr.Communities) {
		fmt.Fprintf(out, "  ... %d more (raise -top to see them)\n", len(qr.Communities)-show)
	}
	printNextCursor(out, qr.NextCursor)
	return nil
}

// printNextCursor tells the user how to fetch the next page of a paginated
// answer.
func printNextCursor(out io.Writer, cursor string) {
	if cursor != "" {
		fmt.Fprintf(out, "more communities remain; next page: -cursor %s\n", cursor)
	}
}

// printStream consumes the NDJSON streaming answer through the client,
// printing each community as the server produces it. The trailer carries the
// execution counters (and the next-page cursor under -limit); an in-band
// error aborts with its status — 410 means the index moved mid-stream and
// the query should simply be re-issued.
func printStream(ctx context.Context, out io.Writer, c *client.Client, q client.Query, label string) error {
	i := 0
	_, err := c.Stream(ctx, q, client.StreamHandler{
		Header: func(h server.StreamHeader) {
			what := "streaming communities"
			if h.TopK > 0 {
				what = fmt.Sprintf("streaming top %d communities by cohesion", h.TopK)
			}
			fmt.Fprintf(out, "%s from %s\n", what, label)
		},
		Community: func(sc server.StreamCommunity) error {
			i++
			line := fmt.Sprintf("  [%d]", i)
			if sc.Network != "" {
				line += fmt.Sprintf(" network=%s", sc.Network)
			}
			if sc.Cohesion > 0 {
				line += fmt.Sprintf(" cohesion=%.4g", sc.Cohesion)
			}
			fmt.Fprintf(out, "%s theme={%s} vertices=%v\n", line, strings.Join(sc.Theme, ", "), sc.Vertices)
			return nil
		},
		Trailer: func(tr server.StreamTrailer) {
			fmt.Fprintf(out, "stream complete in %dµs: %d communities", tr.QueryMicros, tr.Emitted)
			if tr.RetrievedNodes > 0 || tr.VisitedNodes > 0 {
				fmt.Fprintf(out, " (%d trusses retrieved, %d nodes visited)", tr.RetrievedNodes, tr.VisitedNodes)
			}
			if tr.ShardsShortCircuited > 0 {
				fmt.Fprintf(out, "; %d shards short-circuited by top-k early termination", tr.ShardsShortCircuited)
			}
			fmt.Fprintln(out)
			printNextCursor(out, tr.NextCursor)
		},
	})
	if err != nil {
		return fmt.Errorf("stream failed: %w", err)
	}
	return nil
}

// printExplainReport renders one plan + execution report.
func printExplainReport(out io.Writer, rep *server.ExplainResponse) {
	pattern := "every item (query by alpha)"
	if !rep.Full {
		pattern = "{" + strings.Join(rep.Pattern, ", ") + "}"
	}
	if rep.Mode != "" {
		pattern += ", " + string(rep.Mode)
	}
	fmt.Fprintf(out, "plan for pattern %s at α_q=%g (%d workers, lazy=%v)\n",
		pattern, rep.Alpha, rep.Workers, rep.Lazy)
	fmt.Fprintf(out, "%d shards: %d scanned, %d skipped by α*, %d not in query\n",
		rep.Shards, len(rep.ScheduleOrder), rep.SkippedAlpha, rep.SkippedAbsent)
	if rep.SkippedBloom > 0 {
		fmt.Fprintf(out, "catalogue skips: %d by item bloom filter\n", rep.SkippedBloom)
	}
	if len(rep.ScheduleOrder) > 0 {
		order := make([]string, len(rep.ScheduleOrder))
		for i, it := range rep.ScheduleOrder {
			order[i] = strconv.Itoa(int(it))
		}
		fmt.Fprintf(out, "schedule: %s\n", strings.Join(order, ", "))
	}
	for _, task := range rep.Tasks {
		line := fmt.Sprintf("  shard %-6d %-11s nodes=%-6d α*=%-8.4g", task.Item, task.Decision, task.Nodes, task.MaxAlpha)
		if !task.Decision.Skipped() {
			line += fmt.Sprintf(" %4dµs visited=%d trusses=%d", task.Micros, task.Visited, task.Trusses)
			if task.Loaded {
				line += " (loaded)"
			}
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "executed in %dµs: %d trusses retrieved, %d nodes visited; loads=%d\n",
		rep.Micros, rep.RetrievedNodes, rep.VisitedNodes, rep.Loaded)
}
