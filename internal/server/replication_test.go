package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/journal"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
)

// newPrimaryServer builds an observed federated server whose one network is a
// replication-primary member: updates take the journaled fast path and
// GET /api/v1/journal serves the feed. The primary's background loop stays
// off (checkpoints on demand only) so tests control durability.
func newPrimaryServer(t *testing.T) (*Server, *replication.Primary) {
	t.Helper()
	dir := t.TempDir()
	seedAlpha(t, filepath.Join(dir, "alpha"))
	return openPrimaryServer(t, dir)
}

// seedAlpha writes the updatable test network (without item names) and its
// sharded index under dir.
func seedAlpha(t *testing.T, dir string) {
	t.Helper()
	nw := buildUpdatableNetwork(t, 17)
	if err := os.MkdirAll(filepath.Join(dir, "index"), 0o755); err != nil {
		t.Fatal(err)
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatal("seed built an empty tree")
	}
	if _, err := tree.WriteShardedAs(filepath.Join(dir, "index"), tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "network.dbnet"), nw, nil); err != nil {
		t.Fatalf("write network: %v", err)
	}
}

// attachAlpha attaches the network file and index under dir to a new
// federation as network "alpha".
func attachAlpha(t *testing.T, dir string) (*federation.Federation, *federation.Network) {
	t.Helper()
	fed := federation.New(federation.Options{CacheSize: 64})
	netPath := filepath.Join(dir, "network.dbnet")
	loaded, dict, err := dbnet.ReadFile(netPath)
	if err != nil {
		t.Fatalf("read network: %v", err)
	}
	idx, err := tctree.OpenSharded(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if err := fed.AttachIndex("alpha", idx, federation.NetworkOptions{
		Network: loaded, Dictionary: dict, NetworkPath: netPath,
	}); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}
	n, _ := fed.Network("alpha")
	return fed, n
}

// openPrimaryServer serves dir/alpha as the one member of a recovered
// primary journaling to dir/journal.
func openPrimaryServer(t *testing.T, dir string) (*Server, *replication.Primary) {
	t.Helper()
	fed, n := attachAlpha(t, filepath.Join(dir, "alpha"))
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	p := replication.NewPrimary(j, replication.Options{CheckpointInterval: -1})
	if err := p.Add(n); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := p.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s, err := New(nil, Options{Federation: fed, Primary: p, Obs: obs.NewObserver(obs.ObserverOptions{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, p
}

// journalFrames decodes an NDJSON journal feed into generic frames.
func journalFrames(t *testing.T, body string) []map[string]any {
	t.Helper()
	var frames []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var f map[string]any
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad feed line %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestPrimaryServerJournalFlow drives the full primary-side HTTP surface:
// updates get journal sequence numbers, the journal feed replays them as
// record frames closed by a head frame, ?from resumes mid-stream, and the
// role state shows up in /healthz, federationstats and the metrics.
func TestPrimaryServerJournalFlow(t *testing.T) {
	s, _ := newPrimaryServer(t)

	// Two journaled updates; each response carries its journal seq.
	bodies := []string{
		`{"addVertices": 1, "addEdges": [[0,16],[1,16]], "addTransactions": [{"vertex": 16, "items": ["1","2"]}]}`,
		`{"addTransactions": [{"vertex": 0, "items": ["3"]}]}`,
	}
	for i, body := range bodies {
		rec := post(t, s, "/api/v1/alpha/update", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
		var resp UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("update %d: decode: %v", i, err)
		}
		if want := uint64(i + 1); resp.JournalSeq != want {
			t.Fatalf("update %d: journalSeq = %d, want %d (body %s)", i, resp.JournalSeq, want, rec.Body.String())
		}
	}

	// The feed replays both records, then marks the durable head.
	rec := get(t, s, "/api/v1/journal")
	if rec.Code != http.StatusOK {
		t.Fatalf("journal status = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("journal Content-Type = %q", ct)
	}
	frames := journalFrames(t, rec.Body.String())
	if len(frames) != 3 {
		t.Fatalf("journal feed has %d frames, want 3: %s", len(frames), rec.Body.String())
	}
	for i := 0; i < 2; i++ {
		f := frames[i]
		if f["type"] != "record" || f["seq"].(float64) != float64(i+1) || f["network"] != "alpha" {
			t.Fatalf("frame %d = %v, want record seq %d network alpha", i, f, i+1)
		}
		if f["payload"].(string) == "" {
			t.Fatalf("frame %d has an empty payload", i)
		}
	}
	if f := frames[2]; f["type"] != "head" || f["seq"].(float64) != 2 {
		t.Fatalf("closing frame = %v, want head seq 2", f)
	}

	// ?from resumes after the cursor; a caught-up cursor gets just the head.
	frames = journalFrames(t, get(t, s, "/api/v1/journal?from=1").Body.String())
	if len(frames) != 2 || frames[0]["seq"].(float64) != 2 || frames[1]["type"] != "head" {
		t.Fatalf("from=1 frames = %v", frames)
	}
	frames = journalFrames(t, get(t, s, "/api/v1/journal?from=2").Body.String())
	if len(frames) != 1 || frames[0]["type"] != "head" {
		t.Fatalf("from=2 frames = %v", frames)
	}

	// Malformed cursor parameters are 400s.
	for _, url := range []string{"/api/v1/journal?from=x", "/api/v1/journal?wait=x", "/api/v1/journal?wait=-1"} {
		if rec := get(t, s, url); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, rec.Code)
		}
	}

	// The role state reaches /healthz and federationstats.
	var health HealthResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Replication == nil || health.Replication.Role != "primary" || health.Replication.JournalSeq != 2 {
		t.Fatalf("healthz replication = %+v", health.Replication)
	}
	var fs FederationStatsResponse
	if err := json.Unmarshal(get(t, s, "/api/v1/federationstats").Body.Bytes(), &fs); err != nil {
		t.Fatalf("federationstats: %v", err)
	}
	if fs.Replication == nil || fs.Replication.Role != "primary" {
		t.Fatalf("federationstats replication = %+v", fs.Replication)
	}
	if ns, ok := fs.Replication.Networks["alpha"]; !ok || ns.AppliedSeq != 2 {
		t.Fatalf("federationstats networks = %+v", fs.Replication.Networks)
	}

	// The metric collectors sample the journal and per-member progress.
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"tc_journal_seq 2",
		"tc_journal_appends_total 2",
		`tc_replication_applied_seq{network="alpha"} 2`,
		"tc_replica_lag_records 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// The journaled updates are live: the served answers match a fresh
	// rebuild of the same network after the same deltas.
	nw := buildUpdatableNetwork(t, 17)
	applyUpdateJSON(t, nw, bodies...)
	// Round-trip through the network file so the reference server renders
	// items through the same synthesized dictionary the primary loaded.
	freshPath := filepath.Join(t.TempDir(), "fresh.dbnet")
	if err := dbnet.WriteFileAtomic(freshPath, nw, nil); err != nil {
		t.Fatalf("write fresh network: %v", err)
	}
	freshNW, freshDict, err := dbnet.ReadFile(freshPath)
	if err != nil {
		t.Fatalf("read fresh network: %v", err)
	}
	// AttachIndex pads the primary's dictionary with item-<id> placeholders;
	// mirror that so both servers render theme names identically.
	freshDict.PadTo(16)
	fresh, _ := testNetwork{Built: builtIndex(t, freshNW, tctree.BuildOptions{}),
		NetworkOptions: federation.NetworkOptions{Dictionary: freshDict}}.serve(t)
	for _, url := range []string{"/api/v1/query?alpha=0", "/api/v1/query?pattern=1,2&alpha=0.1"} {
		got, want := get(t, s, "/api/v1/alpha"+url[7:]), get(t, fresh, url)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", url, got.Code, want.Code)
		}
		if normalize(got.Body.String()) != normalize(want.Body.String()) {
			t.Fatalf("%s diverges from fresh rebuild:\n got %s\nwant %s", url, got.Body.String(), want.Body.String())
		}
	}
}

// TestJournaledNamesReachReplicasAndRecovery: the item names journaled
// updates introduce travel in their records, so a replica tailing the journal
// and the primary reopened and recovered from it name every item as the
// primary does, and the next checkpoint keeps the names; a rejected update
// introduces none. Items an update introduces by number are named too, with
// placeholders that never take a name the same update introduces, so a client
// naming "item-70" beside item 80 breaks no role.
func TestJournaledNamesReachReplicasAndRecovery(t *testing.T) {
	dir, snapshot := t.TempDir(), t.TempDir()
	seedAlpha(t, filepath.Join(dir, "alpha"))
	seedAlpha(t, snapshot)
	s, p := openPrimaryServer(t, dir)
	for _, u := range []struct {
		body   string
		status int
	}{
		// Item 60 enters by number, past every named item.
		{`{"addTransactions": [{"vertex": 0, "items": ["coffee", "1"]}, {"vertex": 3, "items": ["60"]}]}`, http.StatusOK},
		{`{"addTransactions": [{"vertex": 99, "items": ["tea"]}]}`, http.StatusBadRequest},
		{"checkpoint", 0},
		{`{"addTransactions": [{"vertex": 1, "items": ["milk", "coffee"]}, {"vertex": 2, "items": ["sugar", "2"]}]}`, http.StatusOK},
		// item-7 is item 7's placeholder; item-70 is a new name, and item
		// 70's placeholder steps aside for it.
		{`{"addTransactions": [{"vertex": 4, "items": ["item-7"]}, {"vertex": 5, "items": ["item-70", "80"]}]}`, http.StatusOK},
	} {
		if u.body == "checkpoint" {
			// The network file now holds item 60, so a restart pads the
			// dictionary past it before replaying the next record.
			if err := p.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		} else if rec := post(t, s, "/api/v1/alpha/update", u.body); rec.Code != u.status {
			t.Fatalf("update %s = %d, want %d: %s", u.body, rec.Code, u.status, rec.Body.String())
		}
	}
	primary, _ := s.fed.Network("alpha")
	want := primary.Dictionary().SortedNames()
	if milk, _ := primary.Dictionary().Lookup("milk"); milk <= 60 {
		t.Fatalf("milk is item %d, on or below item 60 that entered by number", milk)
	}
	if _, ok := primary.Dictionary().Lookup("tea"); ok {
		t.Fatalf("the rejected update interned its name")
	}
	if id, _ := primary.Dictionary().Lookup("item-7"); id != 7 {
		t.Fatalf("item-7 is item %d, want its placeholder's item 7", id)
	}
	if id, _ := primary.Dictionary().Lookup("item-70"); id <= 80 {
		t.Fatalf("item-70 is item %d, on or below item 80 that entered by number", id)
	}
	if name := primary.Dictionary().MustName(60); name != "item-60" {
		t.Fatalf("item 60, entered by number, is named %q, want its placeholder", name)
	}
	sameNames := func(label string, n *federation.Network) {
		t.Helper()
		dict := n.Dictionary()
		if got := dict.SortedNames(); !slices.Equal(got, want) {
			t.Fatalf("%s dictionary %q, the primary's %q", label, got, want)
		}
		for id := 0; id < dict.Len(); id++ {
			if got, want := dict.MustName(itemset.Item(id)), primary.Dictionary().MustName(itemset.Item(id)); got != want {
				t.Fatalf("%s names item %d %q, the primary %q", label, id, got, want)
			}
		}
	}

	// A replica bootstrapped before the updates tails them from the journal,
	// and its checkpoint writes the names into its network file.
	_, member := attachAlpha(t, snapshot)
	rep := replication.NewReplica(replication.Options{CheckpointInterval: -1})
	if err := rep.Add(member); err != nil {
		t.Fatalf("replica Add: %v", err)
	}
	rd := p.Journal().Range(0)
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
	rd.Close()
	sameNames("replica", member)
	if err := rep.Checkpoint(); err != nil {
		t.Fatalf("replica checkpoint: %v", err)
	}
	_, reread := attachAlpha(t, snapshot)
	sameNames("replica's checkpoint", reread)

	// The primary reopened on its files, checkpointed before the last
	// update, recovers that update from the journal.
	p.Journal().Close()
	recovered, _ := openPrimaryServer(t, dir)
	n, _ := recovered.fed.Network("alpha")
	sameNames("recovered primary", n)
	if rec := post(t, recovered, "/api/v1/alpha/update", `{"addTransactions": [{"vertex": 6, "items": ["item-70", "oat"]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update on the recovered primary = %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// A name a record line would not read back as itself is refused.
	if rec := post(t, recovered, "/api/v1/alpha/update", `{"addTransactions": [{"vertex": 3, "items": ["two  spaces"]}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("update naming %q = %d, want 400: %s", "two  spaces", rec.Code, rec.Body.String())
	}
	if _, ok := n.Dictionary().Lookup("two  spaces"); ok {
		t.Fatalf("the refused name entered the dictionary")
	}
}

// TestConcurrentUpdatesIntroducingNames: updates resolved at the same time
// leave their new names unnumbered; the primary's update lock numbers each
// against the dictionary as it stands (delta.Delta.Number), so every name
// gets one item, every transaction holds the item of the name
// it gave, and a replica tailing the journal names every item the same way.
func TestConcurrentUpdatesIntroducingNames(t *testing.T) {
	dir, snapshot := t.TempDir(), t.TempDir()
	seedAlpha(t, filepath.Join(dir, "alpha"))
	seedAlpha(t, snapshot)
	s, p := openPrimaryServer(t, dir)
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"addTransactions": [{"vertex": %d, "items": ["shared", "own-%d"]}]}`, i, i)
			if rec := post(t, s, "/api/v1/alpha/update", body); rec.Code != http.StatusOK {
				t.Errorf("update %d = %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	n, _ := s.fed.Network("alpha")
	dict := n.Dictionary()
	shared, ok := dict.Lookup("shared")
	if !ok {
		t.Fatalf("shared is not named")
	}
	for i := 0; i < writers; i++ {
		own, ok := dict.Lookup(fmt.Sprintf("own-%d", i))
		if !ok {
			t.Fatalf("own-%d is not named", i)
		}
		txs := n.DatabaseNetwork().Database(graph.VertexID(i)).Transactions()
		if last := txs[len(txs)-1]; !last.Equal(itemset.New(shared, own)) {
			t.Fatalf("vertex %d's new transaction is %v, want [shared own-%d] = %v", i, last, i, itemset.New(shared, own))
		}
	}

	_, member := attachAlpha(t, snapshot)
	rep := replication.NewReplica(replication.Options{CheckpointInterval: -1})
	if err := rep.Add(member); err != nil {
		t.Fatalf("replica Add: %v", err)
	}
	rd := p.Journal().Range(0)
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
	if got, want := member.Dictionary().SortedNames(), dict.SortedNames(); !slices.Equal(got, want) {
		t.Fatalf("replica dictionary %q, the primary's %q", got, want)
	}
	for id := 0; id < dict.Len(); id++ {
		if got, want := member.Dictionary().MustName(itemset.Item(id)), dict.MustName(itemset.Item(id)); got != want {
			t.Fatalf("replica names item %d %q, the primary %q", id, got, want)
		}
	}
}

// applyUpdateJSON replays serveUpdate request bodies directly onto a network,
// mirroring what the journaled path applied on the server.
func applyUpdateJSON(t *testing.T, nw *dbnet.Network, bodies ...string) {
	t.Helper()
	tn := &tenant{dict: nil}
	for _, body := range bodies {
		var req UpdateRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		d, err := tn.parseUpdate(&req)
		if err != nil {
			t.Fatalf("parseUpdate: %v", err)
		}
		if err := d.Validate(nw); err != nil {
			t.Fatalf("validate: %v", err)
		}
		if err := delta.Apply(nw, d); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
}

// TestJournalNotFoundWithoutPrimary: the journal route exists on every server
// but only a primary serves it.
func TestJournalNotFoundWithoutPrimary(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := get(t, s, "/api/v1/journal"); rec.Code != http.StatusNotFound {
		t.Fatalf("journal on non-primary = %d, want 404", rec.Code)
	}
}

// TestReadOnlyReplicaRejectsWrites: a replica answers reads normally but
// turns every update into a 403 that points at the primary.
func TestReadOnlyReplicaRejectsWrites(t *testing.T) {
	nw := buildUpdatableNetwork(t, 17)
	status := replication.Status{Role: "replica", HeadSeq: 5, JournalSeq: 3, LagRecords: 2}
	s, _ := testNetwork{Built: builtIndex(t, nw, tctree.BuildOptions{}), NetworkOptions: federation.NetworkOptions{Network: nw}, Server: Options{
		ReadOnly:          true,
		PrimaryURL:        "http://primary:9000/",
		ReplicationStatus: func() replication.Status { return status },
	}}.serve(t)

	if rec := get(t, s, "/api/v1/query?alpha=0"); rec.Code != http.StatusOK {
		t.Fatalf("replica read = %d, want 200", rec.Code)
	}

	rec := post(t, s, "/api/v1/update", `{"addTransactions": [{"vertex": 0, "items": ["3"]}]}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("replica update = %d, want 403 (body %s)", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc != "http://primary:9000/api/v1/update" {
		t.Fatalf("Location = %q", loc)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Status != http.StatusForbidden {
		t.Fatalf("replica 403 envelope: %v (body %s)", err, rec.Body.String())
	}

	// The injected status feeds /healthz.
	var health HealthResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Replication == nil || health.Replication.Role != "replica" || health.Replication.LagRecords != 2 {
		t.Fatalf("healthz replication = %+v", health.Replication)
	}
}
