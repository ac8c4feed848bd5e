package replication

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/journal"
	"themecomm/internal/tctree"
)

const testItems = 5

func randomNetwork(rng *rand.Rand, n, m, items, maxTx int) *dbnet.Network {
	nw := dbnet.New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		ntx := 1 + rng.Intn(maxTx)
		for i := 0; i < ntx; i++ {
			l := 1 + rng.Intn(3)
			tx := make([]itemset.Item, l)
			for j := range tx {
				tx[j] = itemset.Item(rng.Intn(items))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(tx...)); err != nil {
				panic(err)
			}
		}
	}
	return nw
}

// randomDeltaFor builds a random valid delta against nw, covering additions
// and removals (edges, transactions, tombstoned vertices).
func randomDeltaFor(rng *rand.Rand, nw *dbnet.Network, items int) *delta.Delta {
	d := &delta.Delta{}
	n := nw.NumVertices()
	for i := 0; i < 1+rng.Intn(3); i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			d.AddEdges = append(d.AddEdges, graph.EdgeOf(a, b))
		}
	}
	if edges := nw.Graph().Edges(); len(edges) > 0 {
		d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{
			Vertex: graph.VertexID(rng.Intn(n)),
			Tx:     itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items))),
		})
	}
	if rng.Intn(2) == 0 {
		v := graph.VertexID(rng.Intn(n))
		if txs := nw.Database(v).Transactions(); len(txs) > 0 {
			d.RemoveTransactions = append(d.RemoveTransactions, delta.VertexTransaction{
				Vertex: v, Tx: txs[rng.Intn(len(txs))].Clone(),
			})
		}
	}
	if rng.Intn(4) == 0 {
		d.RemoveVertices = append(d.RemoveVertices, graph.VertexID(rng.Intn(n)))
	}
	return d
}

type query struct {
	pattern itemset.Itemset
	alpha   float64
}

func testQueries() []query {
	return []query{
		{nil, 0},
		{nil, 0.15},
		{itemset.New(0), 0},
		{itemset.New(1, 2), 0.1},
		{itemset.New(0, 1, 2, 3, 4), 0},
		{itemset.New(3), 0.3},
	}
}

// assertEngineParity checks that two engines answer the test query mix with
// identical communities, record for record.
func assertEngineParity(t *testing.T, label string, got, want *engine.Engine) {
	t.Helper()
	for _, q := range testQueries() {
		g, err := got.QueryContext(context.Background(), q.pattern, q.alpha)
		if err != nil {
			t.Fatalf("%s: query %v@%v: %v", label, q.pattern, q.alpha, err)
		}
		w, err := want.QueryContext(context.Background(), q.pattern, q.alpha)
		if err != nil {
			t.Fatalf("%s: reference query %v@%v: %v", label, q.pattern, q.alpha, err)
		}
		if len(g.Communities) != len(w.Communities) {
			t.Fatalf("%s: query %v@%v: %d communities, want %d", label, q.pattern, q.alpha, len(g.Communities), len(w.Communities))
		}
		for i, wc := range w.Communities {
			if gc := g.Communities[i]; !gc.Pattern.Equal(wc.Pattern) || !slices.Equal(gc.Vertices, wc.Vertices) ||
				gc.Edges != wc.Edges || gc.Cohesion != wc.Cohesion {
				t.Fatalf("%s: query %v@%v: community %d = %+v, want %+v", label, q.pattern, q.alpha, i, gc, wc)
			}
		}
	}
}

// freshEngine builds the reference: an eager engine over a from-scratch index.
func freshEngine(t *testing.T, nw *dbnet.Network) *engine.Engine {
	t.Helper()
	idx, err := tctree.BuildIndex(nw, tctree.BuildOptions{})
	if err != nil {
		t.Fatalf("fresh index: %v", err)
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	return eng
}

// seedState writes one tenant's initial on-disk state under dir: the network
// file and the sharded index it was built into.
func seedState(t *testing.T, dir string, nw *dbnet.Network) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "index"), 0o755); err != nil {
		t.Fatal(err)
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Skip("empty tree for this seed")
	}
	if _, err := tree.WriteShardedAs(filepath.Join(dir, "index"), tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "network.dbnet"), nw, nil); err != nil {
		t.Fatalf("write network: %v", err)
	}
}

// openPrimary loads every named tenant from dir/<name>/{network.dbnet,index}
// and wires a Primary (background loop disabled) over dir/journal. The
// journal is closed via t.Cleanup.
func openPrimary(t *testing.T, dir string, names ...string) (*Primary, *federation.Federation) {
	t.Helper()
	fed := federation.New(federation.Options{CacheSize: 64})
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	p := NewPrimary(j, Options{CheckpointInterval: -1})
	for _, name := range names {
		sub := filepath.Join(dir, name)
		nw, dict, err := dbnet.ReadFile(filepath.Join(sub, "network.dbnet"))
		if err != nil {
			t.Fatalf("read network %s: %v", name, err)
		}
		idx, err := tctree.OpenSharded(filepath.Join(sub, "index"))
		if err != nil {
			t.Fatalf("open index %s: %v", name, err)
		}
		if err := fed.AttachIndex(name, idx, federation.NetworkOptions{
			Network:     nw,
			Dictionary:  dict,
			NetworkPath: filepath.Join(sub, "network.dbnet"),
		}); err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		n, _ := fed.Network(name)
		if err := p.Add(n); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	return p, fed
}

// TestPrimaryApplyRecoverParity is the crash-injection test for the journaled
// fast path: updates applied after the last checkpoint live only in the
// journal; a restart must replay them and answer every query exactly like a
// process that never crashed.
func TestPrimaryApplyRecoverParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { testApplyRecoverParity(t, seed) })
	}
}

func testApplyRecoverParity(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 14, 34, testItems, 3)
	twin := randomNetwork(rand.New(rand.NewSource(seed)), 14, 34, testItems, 3)
	dir := t.TempDir()
	seedState(t, filepath.Join(dir, "a"), nw)

	p, fed := openPrimary(t, dir, "a")
	if _, err := p.Recover(); err != nil {
		t.Fatalf("seed %d: recover: %v", seed, err)
	}
	live, _ := fed.Network("a")

	var applied []*delta.Delta
	apply := func(k int) {
		for i := 0; i < k; i++ {
			d := randomDeltaFor(rng, live.DatabaseNetwork(), testItems)
			res, err := p.Apply("a", d)
			if err != nil {
				t.Fatalf("seed %d: apply: %v", seed, err)
			}
			if want := uint64(len(applied) + 1); res.Seq != want {
				t.Fatalf("seed %d: seq %d, want %d", seed, res.Seq, want)
			}
			applied = append(applied, d)
		}
	}
	apply(3)
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("seed %d: checkpoint: %v", seed, err)
	}
	apply(2) // these two live only in the journal

	// Crash: drop the whole process state. The journal was already
	// fsynced by each Apply; nothing else was persisted.
	st := p.Status()
	if st.Role != "primary" || st.JournalSeq != 5 {
		t.Fatalf("seed %d: status %+v", seed, st)
	}

	p.Journal().Close() // the crash ends the process, and its lock on the journal
	p2, fed2 := openPrimary(t, dir, "a")
	stats, err := p2.Recover()
	if err != nil {
		t.Fatalf("seed %d: recover after crash: %v", seed, err)
	}
	if stats.Replayed != 2 || stats.Head != 5 {
		t.Fatalf("seed %d: recover stats %+v, want 2 replayed of head 5", seed, stats)
	}

	for _, d := range applied {
		if err := delta.Apply(twin, d); err != nil {
			t.Fatalf("seed %d: twin apply: %v", seed, err)
		}
	}
	live2, _ := fed2.Network("a")
	assertEngineParity(t, "post-recovery", live2.Engine(), freshEngine(t, twin))

	// The recovered primary keeps going: one more update, then a clean
	// shutdown checkpoint, then a cold reopen with nothing to replay.
	d := randomDeltaFor(rng, live2.DatabaseNetwork(), testItems)
	res, err := p2.Apply("a", d)
	if err != nil || res.Seq != 6 {
		t.Fatalf("seed %d: post-recovery apply: seq %v err %v", seed, res, err)
	}
	if err := delta.Apply(twin, d); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatalf("seed %d: stop: %v", seed, err)
	}
	if got := live2.Engine().IndexJournalSeq(); got != 6 {
		t.Fatalf("seed %d: manifest seq %d after Stop, want 6", seed, got)
	}

	p3, fed3 := openPrimary(t, dir, "a")
	stats, err = p3.Recover()
	if err != nil {
		t.Fatalf("seed %d: cold recover: %v", seed, err)
	}
	if stats.Replayed != 0 {
		t.Fatalf("seed %d: clean shutdown still replayed %d records", seed, stats.Replayed)
	}
	live3, _ := fed3.Network("a")
	assertEngineParity(t, "cold-reopen", live3.Engine(), freshEngine(t, twin))
}

// TestRecoverCrashWindowResync pins the W > M window: the crash hit after the
// network file write-back but before the manifest commit. Recovery must
// rebuild the index from the network file and carry on.
func TestRecoverCrashWindowResync(t *testing.T) {
	seed := int64(2)
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 14, 34, testItems, 3)
	twin := randomNetwork(rand.New(rand.NewSource(seed)), 14, 34, testItems, 3)
	dir := t.TempDir()
	seedState(t, filepath.Join(dir, "a"), nw)

	p, fed := openPrimary(t, dir, "a")
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	live, _ := fed.Network("a")
	var applied []*delta.Delta
	for i := 0; i < 2; i++ {
		d := randomDeltaFor(rng, live.DatabaseNetwork(), testItems)
		if _, err := p.Apply("a", d); err != nil {
			t.Fatal(err)
		}
		applied = append(applied, d)
	}
	// Simulate the torn checkpoint: the pre-commit hook's stamped network
	// write landed (W=2), the manifest commit did not (M=0).
	netPath := filepath.Join(dir, "a", "network.dbnet")
	if err := dbnet.WriteFileAtomicStamped(netPath, live.DatabaseNetwork(), live.Dictionary(), 2); err != nil {
		t.Fatal(err)
	}

	p.Journal().Close() // the crash ends the process, and its lock on the journal
	p2, fed2 := openPrimary(t, dir, "a")
	stats, err := p2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(stats.Resynced) != 1 || stats.Resynced[0] != "a" {
		t.Fatalf("resynced %v, want [a]", stats.Resynced)
	}
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d records that the network file already includes", stats.Replayed)
	}
	live2, _ := fed2.Network("a")
	if got := live2.Engine().IndexJournalSeq(); got != 2 {
		t.Fatalf("manifest seq %d after resync, want 2", got)
	}
	for _, d := range applied {
		if err := delta.Apply(twin, d); err != nil {
			t.Fatal(err)
		}
	}
	assertEngineParity(t, "resync", live2.Engine(), freshEngine(t, twin))

	// And the repaired primary keeps accepting updates at the right seq.
	d := randomDeltaFor(rng, live2.DatabaseNetwork(), testItems)
	res, err := p2.Apply("a", d)
	if err != nil || res.Seq != 3 {
		t.Fatalf("apply after resync: %v %v", res, err)
	}
	if err := delta.Apply(twin, d); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, fed3 := openPrimary(t, dir, "a")
	if _, err := p3.Recover(); err != nil {
		t.Fatal(err)
	}
	live3, _ := fed3.Network("a")
	assertEngineParity(t, "resync-cold", live3.Engine(), freshEngine(t, twin))
}

// TestRecoverRefusesLostNetworkFile pins the W < M guard: an index manifest
// ahead of the network file means the rebuild source was lost or replaced,
// which recovery must refuse instead of silently diverging.
func TestRecoverRefusesLostNetworkFile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := randomNetwork(rng, 14, 34, testItems, 3)
	dir := t.TempDir()
	seedState(t, filepath.Join(dir, "a"), nw)

	p, fed := openPrimary(t, dir, "a")
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	live, _ := fed.Network("a")
	if _, err := p.Apply("a", randomDeltaFor(rng, live.DatabaseNetwork(), testItems)); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// "Lose" the stamp: rewrite the network file without one, as if an old
	// backup were restored over it.
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "a", "network.dbnet"), live.DatabaseNetwork(), nil); err != nil {
		t.Fatal(err)
	}
	p.Journal().Close() // the crash ends the process, and its lock on the journal
	p2, _ := openPrimary(t, dir, "a")
	if _, err := p2.Recover(); err == nil {
		t.Fatal("recovery accepted a network file behind the index manifest")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// openReplica loads every named tenant from dir/<name> into its own
// federation and registers them with a fresh Replica configured by opts.
func openReplica(t *testing.T, dir string, opts Options, names ...string) (*Replica, *federation.Federation) {
	t.Helper()
	fed := federation.New(federation.Options{CacheSize: 64})
	rep := NewReplica(opts)
	for _, name := range names {
		sub := filepath.Join(dir, name)
		nw, dict, err := dbnet.ReadFile(filepath.Join(sub, "network.dbnet"))
		if err != nil {
			t.Fatalf("read network %s: %v", name, err)
		}
		idx, err := tctree.OpenSharded(filepath.Join(sub, "index"))
		if err != nil {
			t.Fatalf("open index %s: %v", name, err)
		}
		if err := fed.AttachIndex(name, idx, federation.NetworkOptions{
			Network:     nw,
			Dictionary:  dict,
			NetworkPath: filepath.Join(sub, "network.dbnet"),
		}); err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		n, _ := fed.Network(name)
		if err := rep.Add(n); err != nil {
			t.Fatalf("replica add %s: %v", name, err)
		}
	}
	return rep, fed
}

// tailInto drains the primary's journal into the replica, the in-process
// equivalent of the HTTP tailer.
func tailInto(t *testing.T, p *Primary, rep *Replica) {
	t.Helper()
	rd := p.Journal().Range(rep.From())
	defer rd.Close()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		if err := rep.ApplyRecord(&rec); err != nil {
			t.Fatalf("replay seq %d: %v", rec.Seq, err)
		}
	}
	rep.ObserveHead(p.Journal().DurableSeq())
}

// TestReplicaFollowsPrimary is the end-to-end in-process replication test:
// bootstrap a replica from a checkpoint snapshot, tail the journal, and
// converge on byte-identical answers — then restart the replica from its own
// local checkpoint and converge again.
func TestReplicaFollowsPrimary(t *testing.T) {
	dir := t.TempDir()
	networks := map[string]*dbnet.Network{}
	for i, name := range []string{"a", "b"} {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		networks[name] = randomNetwork(rng, 14, 34, testItems, 3)
		seedState(t, filepath.Join(dir, name), networks[name])
	}
	rng := rand.New(rand.NewSource(9))

	p, fed := openPrimary(t, dir, "a", "b")
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	applyBurst := func(k int) {
		for i := 0; i < k; i++ {
			for _, name := range []string{"a", "b"} {
				live, _ := fed.Network(name)
				if _, err := p.Apply(name, randomDeltaFor(rng, live.DatabaseNetwork(), testItems)); err != nil {
					t.Fatalf("apply %s: %v", name, err)
				}
			}
		}
	}
	applyBurst(2)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Bootstrap the replica from the checkpointed snapshot (index + stamped
	// network file), like scp'ing the data directory.
	rdir := t.TempDir()
	for _, name := range []string{"a", "b"} {
		copyTree(t, filepath.Join(dir, name), filepath.Join(rdir, name))
	}

	// The primary moves on; these records exist only in its journal.
	applyBurst(2)

	rep, rfed := openReplica(t, rdir, Options{}, "a", "b")
	// The snapshot floors differ per member ("a" checkpointed at seq 3, "b"
	// at 4); tailing starts at the slowest and the faster member skips.
	if from := rep.From(); from != 3 {
		t.Fatalf("From() = %d, want 3", from)
	}
	tailInto(t, p, rep)

	st := rep.Status()
	if st.Role != "replica" || st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Fatalf("replica status %+v, want caught up", st)
	}
	if st.JournalSeq != p.Journal().DurableSeq() {
		t.Fatalf("replica at %d, primary head %d", st.JournalSeq, p.Journal().DurableSeq())
	}
	for _, name := range []string{"a", "b"} {
		pn, _ := fed.Network(name)
		rn, _ := rfed.Network(name)
		assertEngineParity(t, "replica:"+name, rn.Engine(), pn.Engine())
	}

	// A record for a network this replica does not serve is skipped, not
	// fatal — and the cursor still advances past it.
	var buf bytes.Buffer
	if err := delta.Write(&buf, &delta.Delta{AddVertices: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Journal().Append("ghost", 1, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	tailInto(t, p, rep)
	if rep.SkippedUnknown() != 1 {
		t.Fatalf("SkippedUnknown = %d, want 1", rep.SkippedUnknown())
	}
	if rep.From() != p.Journal().DurableSeq() {
		t.Fatalf("cursor %d did not advance past the foreign record (head %d)", rep.From(), p.Journal().DurableSeq())
	}

	// Replica checkpoints locally; a restarted replica resumes from its own
	// stamps (nothing to re-tail) and still matches the primary.
	if err := rep.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep2, rfed2 := openReplica(t, rdir, Options{}, "a", "b")
	if from := rep2.From(); from != 7 {
		t.Fatalf("restarted From() = %d, want 7 (the slower member's checkpoint)", from)
	}
	tailInto(t, p, rep2)
	for _, name := range []string{"a", "b"} {
		pn, _ := fed.Network(name)
		rn, _ := rfed2.Network(name)
		assertEngineParity(t, "replica-restart:"+name, rn.Engine(), pn.Engine())
	}

	// Lag accounting: new primary records the replica has not applied yet.
	applyBurst(1)
	rep2.ObserveHead(p.Journal().DurableSeq())
	if st := rep2.Status(); st.LagRecords != 2 {
		t.Fatalf("LagRecords = %d, want 2", st.LagRecords)
	}
	tailInto(t, p, rep2)
	if st := rep2.Status(); st.LagRecords != 0 {
		t.Fatalf("LagRecords = %d after catch-up, want 0", st.LagRecords)
	}
}

// TestReplicaCheckpointLoop runs the replica's background checkpoints: a
// started replica persists what it replays without an explicit Checkpoint,
// and Stop returns only after a final checkpoint.
func TestReplicaCheckpointLoop(t *testing.T) {
	dir, rdir := t.TempDir(), t.TempDir()
	rng := rand.New(rand.NewSource(3))
	seedState(t, filepath.Join(dir, "a"), randomNetwork(rng, 14, 34, testItems, 3))
	copyTree(t, filepath.Join(dir, "a"), filepath.Join(rdir, "a"))
	p, fed := openPrimary(t, dir, "a")
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	apply := func(k int) {
		for i := 0; i < k; i++ {
			live, _ := fed.Network("a")
			if _, err := p.Apply("a", randomDeltaFor(rng, live.DatabaseNetwork(), testItems)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(2)

	rep, _ := openReplica(t, rdir, Options{CheckpointInterval: 5 * time.Millisecond}, "a")
	rep.Start()
	tailInto(t, p, rep)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ns := rep.Status().Networks["a"]; ns.AppliedSeq == 2 && ns.FlushedSeq == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the checkpoint loop never flushed: %+v", rep.Status().Networks["a"])
		}
	}
	if err := rep.Stop(); err != nil {
		t.Fatal(err)
	}

	// The loop's checkpoint is on disk: a restart resumes after it. With an
	// interval that never ticks, only Stop's final checkpoint persists the
	// next record.
	apply(1)
	rep2, _ := openReplica(t, rdir, Options{CheckpointInterval: time.Hour}, "a")
	if from := rep2.From(); from != 2 {
		t.Fatalf("restarted From() = %d, want 2", from)
	}
	rep2.Start()
	tailInto(t, p, rep2)
	if ns := rep2.Status().Networks["a"]; ns.AppliedSeq != 3 || ns.FlushedSeq != 2 {
		t.Fatalf("before Stop: %+v, want applied 3, flushed 2", ns)
	}
	if err := rep2.Stop(); err != nil {
		t.Fatal(err)
	}
	if ns := rep2.Status().Networks["a"]; ns.FlushedSeq != 3 {
		t.Fatalf("after Stop: %+v, want flushed 3", ns)
	}
	rep3, _ := openReplica(t, rdir, Options{CheckpointInterval: 5 * time.Millisecond}, "a")
	if from := rep3.From(); from != 3 {
		t.Fatalf("From() after Stop = %d, want 3", from)
	}

	// Without a logger, a checkpoint the loop cannot persist still reaches
	// the standard log.
	logged := make(chanWriter, 1)
	log.SetOutput(logged)
	defer log.SetOutput(os.Stderr)
	if err := os.Mkdir(filepath.Join(rdir, "a", "network.dbnet.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	apply(1)
	rep3.Start()
	tailInto(t, p, rep3)
	select {
	case line := <-logged:
		if !strings.Contains(line, "background checkpoint failed") {
			t.Errorf("logged %q, want a checkpoint failure", line)
		}
	case <-time.After(10 * time.Second):
		t.Error("a failing background checkpoint logged nothing")
	}
	if err := rep3.Stop(); err == nil {
		t.Error("Stop's final checkpoint succeeded with the write-back blocked")
	}
}

// chanWriter passes each write on as a line, dropping it when nobody waits.
type chanWriter chan string

func (c chanWriter) Write(p []byte) (int, error) {
	select {
	case c <- string(p):
	default:
	}
	return len(p), nil
}

// TestPrimaryApplyGuards covers the refusal paths: unknown networks, invalid
// deltas (which must never reach the journal), and applying before recovery.
func TestPrimaryApplyGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := randomNetwork(rng, 14, 34, testItems, 3)
	dir := t.TempDir()
	seedState(t, filepath.Join(dir, "a"), nw)

	p, fed := openPrimary(t, dir, "a")
	live, _ := fed.Network("a")
	if _, err := p.Apply("a", &delta.Delta{AddVertices: 1}); err == nil {
		t.Fatal("apply before Recover succeeded")
	}
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply("nope", &delta.Delta{AddVertices: 1}); err == nil {
		t.Fatal("apply to unknown network succeeded")
	}
	bad := &delta.Delta{RemoveVertices: []graph.VertexID{9999}}
	if _, err := p.Apply("a", bad); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if head := p.Journal().DurableSeq(); head != 0 {
		t.Fatalf("invalid delta reached the journal (head %d)", head)
	}
	if _, err := p.Apply("a", randomDeltaFor(rng, live.DatabaseNetwork(), testItems)); err != nil {
		t.Fatalf("valid delta refused: %v", err)
	}
	if _, err := p.Recover(); err == nil {
		t.Fatal("second Recover succeeded")
	}
}

// TestRecoverRefusesAPairStampedUnderAnotherJournal pins what keeps every
// pair's stamps in one journal's sequence: a journaled session checkpoints
// the files at 2, and a primary over another journal — fresh, or one whose
// head is below the stamps — refuses them with the "beyond the journal head"
// error rather than replay its own records onto them, leaving the served
// state as the files hold it.
func TestRecoverRefusesAPairStampedUnderAnotherJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := randomNetwork(rng, 14, 34, testItems, 3)
	twin := randomNetwork(rand.New(rand.NewSource(4)), 14, 34, testItems, 3)
	dir := t.TempDir()
	sub := filepath.Join(dir, "a")
	seedState(t, sub, nw)

	p, fed := openPrimary(t, dir, "a")
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	live, _ := fed.Network("a")
	for i := 0; i < 2; i++ {
		d := randomDeltaFor(rng, live.DatabaseNetwork(), testItems)
		if _, err := p.Apply("a", d); err != nil {
			t.Fatal(err)
		}
		if err := delta.Apply(twin, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := live.Engine().IndexJournalSeq(); got != 2 {
		t.Fatalf("manifest seq %d after the journaled session, want 2", got)
	}

	other := filepath.Join(dir, "other")
	for _, records := range []int{0, 1} {
		if records > 0 {
			var payload bytes.Buffer
			if err := delta.Write(&payload, randomDeltaFor(rng, twin, testItems)); err != nil {
				t.Fatal(err)
			}
			j, err := journal.Open(other, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append("a", 1, payload.Bytes()); err != nil {
				t.Fatal(err)
			}
			j.Close()
		}
		f := federation.New(federation.Options{})
		if err := f.AttachIndexDir("a", filepath.Join(sub, "index"), filepath.Join(sub, "network.dbnet")); err != nil {
			t.Fatal(err)
		}
		p2, _, err := OpenPrimary(f, other, Options{CheckpointInterval: -1})
		if err == nil || !strings.Contains(err.Error(), "beyond the head") {
			if p2 != nil {
				p2.Close()
			}
			t.Fatalf("another journal holding %d records: OpenPrimary error %v, want the stamp beyond its head refused", records, err)
		}
		n, _ := f.Network("a")
		assertEngineParity(t, fmt.Sprintf("refused with %d records", records), n.Engine(), freshEngine(t, twin))
	}
	// The refusal released the other journal.
	j, err := journal.Open(other, journal.Options{})
	if err != nil {
		t.Fatalf("the refused open kept the journal locked: %v", err)
	}
	j.Close()
}

// TestApplyPersistsAtTheCheckpoint covers the one write route on both kinds
// of member: the update is served at once and journaled, the files hold the
// network as it was until the checkpoint, which writes the network file back
// stamped with the journal seq and, on an indexed member, commits the
// rebuilt shards with the manifest stamped alike; a network without a
// database network is no member and refuses the delta.
func TestApplyPersistsAtTheCheckpoint(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			nw := randomNetwork(rng, 14, 34, testItems, 3)
			dir := t.TempDir()
			seedState(t, dir, nw)
			netPath, indexDir := filepath.Join(dir, "network.dbnet"), filepath.Join(dir, "index")
			before, err := os.ReadFile(netPath)
			if err != nil {
				t.Fatal(err)
			}
			f := federation.New(federation.Options{CacheSize: 16})
			opts := federation.NetworkOptions{Network: nw, NetworkPath: netPath}
			if mode == "eager" {
				err = f.AttachBuilt("bk", freshIndex(t, nw), opts)
			} else {
				err = f.AttachIndexDir("bk", indexDir, netPath)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := f.AttachBuilt("frozen", freshIndex(t, nw), federation.NetworkOptions{}); err != nil {
				t.Fatal(err)
			}
			p, _, err := OpenPrimary(f, filepath.Join(dir, "journal"), Options{CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			n, _ := f.Network("bk")
			nw = n.DatabaseNetwork()

			d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
				{Vertex: 0, Tx: itemset.New(0, 1)}, {Vertex: 1, Tx: itemset.New(0, 1)},
			}}
			res, err := p.Apply("bk", d)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if res.Seq != 1 || res.Result.Affected.Len() == 0 || res.Result.Duration <= 0 {
				t.Fatalf("result seq %d, %+v: want seq 1, affected items and a duration", res.Seq, res.Result)
			}
			assertEngineParity(t, "served", n.Engine(), freshEngine(t, nw))
			if onDisk, err := os.ReadFile(netPath); err != nil || !bytes.Equal(onDisk, before) {
				t.Fatalf("the network file changed before the checkpoint (%v)", err)
			}

			if err := p.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			wantIndexSeq := uint64(0)
			if mode == "lazy" {
				wantIndexSeq = 1
			}
			if w, m, err := n.Stamps(); err != nil || w != 1 || m != wantIndexSeq {
				t.Fatalf("stamps after the checkpoint = (%d, %d, %v), want (1, %d)", w, m, err, wantIndexSeq)
			}
			onDisk, _, err := dbnet.ReadFile(netPath)
			if err != nil {
				t.Fatal(err)
			}
			assertEngineParity(t, "written back", freshEngine(t, onDisk), freshEngine(t, nw))
			if mode == "lazy" {
				if n.Engine().DirtyShards() != 0 {
					t.Fatalf("%d dirty shards after the checkpoint", n.Engine().DirtyShards())
				}
				idx, err := tctree.OpenSharded(indexDir)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := engine.NewLazy(idx, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertEngineParity(t, "reopened", cold, freshEngine(t, nw))
			}

			if _, err := p.Apply("frozen", d); err == nil {
				t.Fatal("a network without a database network accepted a delta")
			}
			if _, err := p.Apply("nosuch", d); err == nil {
				t.Fatal("an unknown network accepted a delta")
			}
		})
	}
}

// freshIndex builds nw's index in-process.
func freshIndex(t *testing.T, nw *dbnet.Network) *tctree.Index {
	t.Helper()
	idx, err := tctree.BuildIndex(nw, tctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}
