package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"themecomm"
	"themecomm/internal/client"
	"themecomm/internal/core"
	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// checker accumulates the answer checks of one run. Every check runs outside
// the timed window. A failed check counts into the run's failed operations
// and makes the run incorrect.
type checker struct {
	st *site
	// liveChecks counts the queries the checks themselves sent to the server.
	liveChecks int
	failed     int
	failures   []string // first few, for the report
	// detect accumulates the oracle's truss detections (core.mpt_detect_ms).
	detect      time.Duration
	detectCalls int
	// visited and retrieved sum the traversal counters of the decoded
	// answers (engine.nodes_visited_per_op, engine.useful_visit_ratio).
	visited, retrieved, decoded int
	// affected is how many items each acknowledged update touched, in
	// order; lastSeq is the journal sequence number of the latest.
	affected []float64
	lastSeq  uint64
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// canonical renders one community as theme|vertices|edges with both lists
// sorted, so answers compare as multisets of strings.
func canonical(theme, vertices []string, edges int) string {
	t := append([]string(nil), theme...)
	v := append([]string(nil), vertices...)
	sort.Strings(t)
	sort.Strings(v)
	return strings.Join(t, ",") + "|" + strings.Join(v, ",") + "|" + strconv.Itoa(edges)
}

func canonicalResponses(cs []server.CommunityResponse) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = canonical(c.Theme, c.Vertices, c.Edges)
	}
	sort.Strings(out)
	return out
}

func (c *checker) canonicalCommunities(cs []core.Community) []string {
	out := make([]string, len(cs))
	for i, cm := range cs {
		vs := cm.Vertices()
		names := make([]string, len(vs))
		for j, v := range vs {
			names[j] = strconv.Itoa(int(v))
		}
		out[i] = canonical(c.st.dict.Names(cm.Pattern), names, cm.Edges.Len())
	}
	sort.Strings(out)
	return out
}

// firstDiff describes where two sorted answers part, for the failure report.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("community %d: got %q, want %q", i, clip(got[i]), clip(want[i]))
		}
	}
	return fmt.Sprintf("got %d communities, want %d", len(got), len(want))
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}

// oracle answers (pattern, α) from the harness's own eager tree.
func (c *checker) oracle(tree *tctree.Tree, o op) []string {
	var qr *tctree.QueryResult
	if o.pattern == nil {
		qr = tree.QueryByAlpha(o.alpha)
	} else {
		qr = tree.Query(o.pattern, o.alpha)
	}
	return c.canonicalCommunities(qr.Communities())
}

// paper answers (pattern, α) from the definition: the maximal pattern truss
// of every non-empty sub-pattern, detected on the raw network (Algorithm 1),
// split into connected communities. No index is involved.
func (c *checker) paper(q itemset.Itemset, alpha float64) []string {
	var comms []core.Community
	for mask := 1; mask < 1<<q.Len(); mask++ {
		var items []itemset.Item
		for b := 0; b < q.Len(); b++ {
			if mask&(1<<b) != 0 {
				items = append(items, q[b])
			}
		}
		p := itemset.New(items...)
		start := time.Now()
		tr := themecomm.DetectMaximalPatternTruss(c.st.nw, p, alpha)
		c.detect += time.Since(start)
		c.detectCalls++
		for _, comp := range tr.Communities() {
			comms = append(comms, core.Community{Pattern: p, Edges: comp})
		}
	}
	return c.canonicalCommunities(comms)
}

// answer is a decoded response: its communities and the traversal counters
// the server reports with them.
type answer struct {
	communities []server.CommunityResponse
	visited     int
	retrieved   int
}

// decodeAnswer parses a kept response body. Streamed answers are NDJSON
// (header, community lines, trailer); a stream without a trailer, or whose
// trailer disagrees with the lines, is malformed.
func decodeAnswer(o op, body []byte) (answer, error) {
	if o.kind != kindStream {
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return answer{}, err
		}
		return answer{communities: resp.Communities, visited: resp.VisitedNodes, retrieved: resp.RetrievedNodes}, nil
	}
	var out answer
	sawTrailer := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var frame struct {
			Type           string `json:"type"`
			Emitted        int    `json:"emitted"`
			RetrievedNodes int    `json:"retrievedNodes"`
			VisitedNodes   int    `json:"visitedNodes"`
			server.CommunityResponse
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			return answer{}, err
		}
		switch frame.Type {
		case "header":
		case "community":
			out.communities = append(out.communities, frame.CommunityResponse)
		case "trailer":
			sawTrailer = true
			out.visited, out.retrieved = frame.VisitedNodes, frame.RetrievedNodes
			if frame.Emitted != len(out.communities) {
				return answer{}, fmt.Errorf("trailer says %d communities, stream carried %d", frame.Emitted, len(out.communities))
			}
		default:
			return answer{}, fmt.Errorf("stream frame of type %q", frame.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return answer{}, err
	}
	if !sawTrailer {
		return answer{}, fmt.Errorf("stream ended without a trailer")
	}
	return out, nil
}

// checkSamples verifies the timed operations: every one must be a 200, every
// kept body must be well formed, and — when tree is non-nil, i.e. the index
// did not change under the window — must equal the oracle's answer in full.
// Ranked answers (top-k, streamed top-k) must hold at most k communities in
// non-increasing cohesion, each a member of the oracle's full answer at α.
func (c *checker) checkSamples(samples []sample, gen func(i int) op, tree *tctree.Tree) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			c.fail("%s", s.describe())
			continue
		}
		if s.body == nil || s.kind == kindUpdate {
			continue
		}
		o := gen(s.index)
		ans, err := decodeAnswer(o, s.body)
		s.body = nil
		if err != nil {
			c.fail("%s #%d: malformed answer: %v", kindNames[o.kind], s.index, err)
			continue
		}
		c.visited += ans.visited
		c.retrieved += ans.retrieved
		c.decoded++
		got := ans.communities
		if tree == nil {
			continue
		}
		want := c.oracle(tree, o)
		if o.k == 0 {
			if g := canonicalResponses(got); !slices.Equal(g, want) {
				c.fail("%s #%d (%s): %s", kindNames[o.kind], s.index, o.path, firstDiff(g, want))
			}
			continue
		}
		if len(got) > o.k {
			c.fail("%s #%d: %d communities for k=%d", kindNames[o.kind], s.index, len(got), o.k)
		}
		for j, cm := range got {
			if j > 0 && cm.Cohesion > got[j-1].Cohesion {
				c.fail("%s #%d: cohesion rises at rank %d", kindNames[o.kind], s.index, j)
				break
			}
			key := canonical(cm.Theme, cm.Vertices, cm.Edges)
			if k := sort.SearchStrings(want, key); k == len(want) || want[k] != key {
				c.fail("%s #%d: ranked community %q is not in the answer at α=%g", kindNames[o.kind], s.index, clip(key), o.alpha)
				break
			}
		}
	}
}

// live fetches the server's current answer to a pattern query through the
// typed client, outside any timer.
func live(ctx context.Context, cl *client.Client, o op) ([]string, error) {
	resp, _, err := cl.Do(ctx, client.Query{Pattern: o.names, Alpha: o.alpha})
	if err != nil {
		return nil, err
	}
	return canonicalResponses(resp.Communities), nil
}

// checkLive sends each key to the live server through the typed client and
// compares the answer with what want gives for it.
func (c *checker) checkLive(ctx context.Context, base, label string, keys []op, want func(op) []string) {
	cl := client.New(base, client.Options{Retries: -1})
	for _, o := range keys {
		c.liveChecks++
		got, err := live(ctx, cl, o)
		if err != nil {
			c.fail("%s %s: %v", label, o.path, err)
			continue
		}
		if w := want(o); !slices.Equal(got, w) {
			c.fail("%s %s: %s", label, o.path, firstDiff(got, w))
		}
	}
}

// checkPaper compares the live server with the paper's definition on
// (pattern, α) pairs drawn from the workload's own keys.
func (c *checker) checkPaper(ctx context.Context, base string, pairs []op) {
	c.checkLive(ctx, base, "paper check", pairs, func(o op) []string { return c.paper(o.pattern, o.alpha) })
}

// checkTree compares the live server with a tree on the given pattern keys.
func (c *checker) checkTree(ctx context.Context, base string, tree *tctree.Tree, keys []op, label string) {
	c.checkLive(ctx, base, label, keys, func(o op) []string { return c.oracle(tree, o) })
}

// updateDelta resolves an update request's item names into a delta.
func updateDelta(dict *itemset.Dictionary, u *server.UpdateRequest) (*delta.Delta, error) {
	d := &delta.Delta{}
	for _, t := range u.AddTransactions {
		items := make([]itemset.Item, len(t.Items))
		for i, name := range t.Items {
			it, ok := dict.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("update names unknown item %q", name)
			}
			items[i] = it
		}
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{
			Vertex: graph.VertexID(t.Vertex), Tx: itemset.New(items...),
		})
	}
	return d, nil
}

// mirror applies an acknowledged update to the harness's private network,
// through the delta package alone, so the oracle follows the server's state.
func (c *checker) mirror(u *server.UpdateRequest) error {
	d, err := updateDelta(c.st.dict, u)
	if err != nil {
		return err
	}
	return delta.Apply(c.st.nw, d)
}

// checkUpdates verifies update acknowledgements and mirrors each into the
// private network, in sequence order (the writer is one closed-loop
// connection, so sequence order is apply order). With journaled set, the
// acknowledged journal sequence numbers must be contiguous, across calls
// too: a gap is an update the server acknowledged to someone else or lost.
func (c *checker) checkUpdates(samples []sample, gen func(j int) op, journaled bool) {
	sort.Slice(samples, func(a, b int) bool { return samples[a].index < samples[b].index })
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			c.fail("%s", s.describe())
			continue
		}
		var resp server.UpdateResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			c.fail("update #%d: malformed acknowledgement: %v", s.index, err)
			continue
		}
		s.body = nil
		if journaled {
			if resp.JournalSeq == 0 || (c.lastSeq != 0 && resp.JournalSeq != c.lastSeq+1) {
				c.fail("update #%d: journal seq %d after %d is not contiguous", s.index, resp.JournalSeq, c.lastSeq)
			}
			c.lastSeq = resp.JournalSeq
		}
		if err := c.mirror(gen(s.index).update); err != nil {
			c.fail("update #%d: %v", s.index, err)
			continue
		}
		c.affected = append(c.affected, float64(len(resp.AffectedItems)))
	}
}
