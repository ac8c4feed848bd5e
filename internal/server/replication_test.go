package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
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
	nw := buildUpdatableNetwork(t, 17)
	sub := filepath.Join(dir, "alpha")
	if err := os.MkdirAll(filepath.Join(sub, "index"), 0o755); err != nil {
		t.Fatal(err)
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatal("seed built an empty tree")
	}
	if _, err := tree.WriteShardedAs(filepath.Join(sub, "index"), tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	netPath := filepath.Join(sub, "network.dbnet")
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		t.Fatalf("write network: %v", err)
	}

	fed := federation.New(federation.Options{CacheSize: 64})
	loaded, dict, err := dbnet.ReadFile(netPath)
	if err != nil {
		t.Fatalf("read network: %v", err)
	}
	idx, err := tctree.OpenSharded(filepath.Join(sub, "index"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if err := fed.AttachIndex("alpha", idx, federation.NetworkOptions{
		Network: loaded, Dictionary: dict, NetworkPath: netPath,
	}); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}

	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	p := replication.NewPrimary(j, replication.Options{CheckpointInterval: -1})
	n, _ := fed.Network("alpha")
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
