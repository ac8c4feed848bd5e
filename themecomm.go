// Package themecomm finds theme communities in database networks.
//
// It is a from-scratch Go implementation of "Finding Theme Communities from
// Database Networks: from Mining to Indexing and Query Answering"
// (Chu et al., VLDB 2019). A database network is an undirected graph whose
// every vertex carries a transaction database; a theme community is a
// cohesive (triangle-rich) connected subgraph whose vertices all exhibit a
// common frequent pattern — the community's theme.
//
// The package exposes:
//
//   - the database-network data model (Network, ThemeNetwork) with a simple
//     text serialization;
//   - the pattern-truss machinery: maximal pattern truss detection (MPTD) and
//     decomposition;
//   - the three mining algorithms of the paper: the TCS baseline, TCFA
//     (Apriori pruning) and TCFI (graph-intersection pruning, the paper's
//     fastest exact method);
//   - the TC-Tree index with query answering by pattern and by cohesion
//     threshold, persisted as an index directory (one memory-mappable file
//     per top-level item plus a manifest) that is served lazily;
//   - the concurrent query-serving engine: a planner that skips shards from
//     catalogue statistics alone (α* bounds), one sharded executor that
//     queries drain in parallel and streams pull shard by shard, an LRU
//     result cache, batch queries, top-k ranking and an Explain API, loading
//     shards from disk on first touch under a configurable residency budget;
//   - the federation every engine belongs to: open an index with
//     OpenFederation (a networks directory) or NewFederation plus
//     Federation.AttachIndexDir (one index), and reach a network's engine
//     through Federation.Network(name).Engine();
//   - synthetic dataset generators emulating the paper's evaluation datasets.
//
// The cmd/ directory contains command-line tools, examples/ contains runnable
// examples, and README.md documents the architecture (mining → index →
// engine → server) and how the paper's experiments are reproduced.
package themecomm

import (
	"io"
	"net/http"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/edgenet"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/loaders"
	"themecomm/internal/obs"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
	"themecomm/internal/txdb"
)

// Core data-model types.
type (
	// Item identifies a single item of the item universe S.
	Item = itemset.Item
	// Itemset is a canonical (sorted, duplicate-free) set of items; patterns
	// and themes are itemsets.
	Itemset = itemset.Itemset
	// Dictionary maps human-readable item names to Items and back.
	Dictionary = itemset.Dictionary
	// Transaction is one transaction of a vertex database.
	Transaction = txdb.Transaction
	// Database is the transaction database attached to one vertex.
	Database = txdb.Database
	// VertexID identifies a vertex of the database network.
	VertexID = graph.VertexID
	// Edge is an undirected edge in canonical (U < V) orientation.
	Edge = graph.Edge
	// EdgeSet is a set of edges; theme communities are connected edge sets.
	EdgeSet = graph.EdgeSet
	// Network is a database network: a graph whose vertices carry databases.
	Network = dbnet.Network
	// NetworkStats summarises a network (Table 2 of the paper).
	NetworkStats = dbnet.Stats
	// ThemeNetwork is the subgraph induced by the vertices on which a pattern
	// has positive frequency.
	ThemeNetwork = dbnet.ThemeNetwork
)

// Mining and indexing types.
type (
	// Truss is a maximal pattern truss C*_p(α).
	Truss = truss.Truss
	// Decomposition is the threshold-ordered decomposition L_p of a maximal
	// pattern truss, supporting reconstruction at any α.
	Decomposition = truss.Decomposition
	// MiningOptions configures the mining algorithms.
	MiningOptions = core.Options
	// MiningResult is the set of maximal pattern trusses found by a miner.
	MiningResult = core.Result
	// Community is one theme community: a connected subgraph annotated with
	// its theme.
	Community = core.Community
	// Index is the TC-Tree index over all maximal pattern trusses, built
	// in-process as bytes: one TCBIN shard per top-level item.
	Index = tctree.Index
	// TreeBuildOptions configures TC-Tree construction.
	TreeBuildOptions = tctree.BuildOptions
	// Dataset is a generated dataset analogue (network plus item dictionary).
	Dataset = gen.Dataset
)

// Query-serving engine types.
type (
	// Engine is the concurrent query-serving layer over a TC-Tree:
	// plan→execute query answering (α* shard skipping), an LRU result cache,
	// batch and top-k queries. Every engine is a federation member; see
	// FederationNetwork.Engine.
	Engine = engine.Engine
	// EngineStats is a snapshot of the engine's execution and cache counters.
	EngineStats = engine.Stats
	// EngineRequest is one query of an Engine.QueryBatchContext call.
	EngineRequest = engine.Request
	// EngineAnswer is the answer to an Engine query: the theme communities of
	// the retrieved trusses as flat records, plus the query statistics.
	EngineAnswer = engine.Answer
	// RankedCommunity is one community of an engine answer — theme, sorted
	// vertices, edge count — annotated with the cohesion
	// Engine.TopKWithResultContext ranks by.
	RankedCommunity = truss.Community
	// EngineExplain is the annotated plan + execution report of
	// Engine.Explain (and GET /api/v1/explain).
	EngineExplain = engine.ExplainReport
)

// Federation types: one serving process fronting many named indexed
// networks — the multi-tenant "data warehouse of maximal pattern trusses" —
// with per-network engines and shard pools behind one shared result cache
// and one shared residency budget.
type (
	// Federation manages many named networks sharing a result cache and a
	// residency budget, with cross-network batch queries.
	Federation = federation.Federation
	// FederationOptions configures a Federation and its member engines.
	FederationOptions = federation.Options
	// FederationNetworkOptions carries one network's presentation metadata
	// (item dictionary, vertex display names).
	FederationNetworkOptions = federation.NetworkOptions
	// FederationNetwork is one attached tenant: a named engine plus its
	// metadata.
	FederationNetwork = federation.Network
	// FederationStats is a snapshot of the federation's shared resources,
	// aggregates and per-network engine counters.
	FederationStats = federation.Stats
	// DiscoveredNetwork is one indexed network found in a networks
	// directory.
	DiscoveredNetwork = federation.DiscoveredNetwork
)

// NewFederation returns an empty federation; attach networks with
// AttachBuilt (an index built in-process with BuildIndex) or AttachIndexDir
// (an index directory).
func NewFederation(opts FederationOptions) *Federation { return federation.New(opts) }

// OpenFederation builds a federation from every indexed network found in
// dir: each index directory attaches lazily, and a sibling <name>.dbnet file
// provides a network's item dictionary and makes it updatable.
func OpenFederation(dir string, opts FederationOptions) (*Federation, error) {
	return federation.Discover(dir, opts)
}

// DiscoverNetworks lists the indexed networks inside dir without opening
// them, in ascending name order.
func DiscoverNetworks(dir string) ([]DiscoveredNetwork, error) {
	return federation.DiscoverNetworks(dir)
}

// Index persistence types.
type (
	// ShardedIndex is a handle on an on-disk index directory: one TCBIN
	// shard file per first-level subtree plus an index.manifest catalogue.
	ShardedIndex = tctree.ShardedIndex
	// IndexManifest is the content of an index's manifest file.
	IndexManifest = tctree.Manifest
	// IndexShardEntry is the manifest metadata of one shard.
	IndexShardEntry = tctree.ShardEntry
)

// OpenShardedIndex opens an index directory written by Index.Write (or
// tcindex). Only the manifest is read; shards load on demand.
func OpenShardedIndex(dir string) (*ShardedIndex, error) { return tctree.OpenSharded(dir) }

// IsShardedIndex reports whether path is an index directory.
func IsShardedIndex(path string) bool { return tctree.IsSharded(path) }

// Incremental maintenance types: apply network deltas to a live index
// instead of rebuilding it from scratch.
type (
	// NetworkDelta is one batch of changes to a database network: added
	// vertices, added/removed edges, added transactions.
	NetworkDelta = delta.Delta
	// DeltaTransaction is one transaction of a delta, bound to its vertex.
	DeltaTransaction = delta.VertexTransaction
	// DeltaResult summarises one update (affected items, per-shard
	// outcomes, the new index epoch): an Engine.ApplyDeltaInMemory call,
	// which a server's update journals first and checkpoints later.
	DeltaResult = engine.DeltaResult
	// IndexCommitReport details one sharded-index commit: which shards were
	// replaced, added and removed.
	IndexCommitReport = tctree.CommitReport
)

// AffectedItems bounds the set of top-level items whose index shards can
// change when the delta is applied — call it BEFORE ApplyNetworkDelta.
func AffectedItems(nw *Network, d *NetworkDelta) Itemset { return delta.AffectedItems(nw, d) }

// ApplyNetworkDelta validates the delta and mutates the network in place.
// Serving layers update index and network together instead, through the one
// write route (POST /api/v1/update on a tcserver, offline tcupdate): the
// delta is appended to the journal, Engine.ApplyDeltaInMemory swaps the
// rebuilt shards in, and a later Engine.Checkpoint persists them, writing
// the network file back before the index commits.
func ApplyNetworkDelta(nw *Network, d *NetworkDelta) error { return delta.Apply(nw, d) }

// ReadDelta parses a delta from its TCDELTA text serialization; dict, when
// non-nil, resolves (and interns) item names.
func ReadDelta(r io.Reader, dict *Dictionary) (*NetworkDelta, error) { return delta.Read(r, dict) }

// ReadDeltaFile reads a delta from a file.
func ReadDeltaFile(path string, dict *Dictionary) (*NetworkDelta, error) {
	return delta.ReadFile(path, dict)
}

// WriteDelta serializes a delta to w.
func WriteDelta(w io.Writer, d *NetworkDelta) error { return delta.Write(w, d) }

// NewNetwork returns a database network with n vertices, no edges and empty
// vertex databases.
func NewNetwork(n int) *Network { return dbnet.New(n) }

// NewDictionary returns an empty item dictionary.
func NewDictionary() *Dictionary { return itemset.NewDictionary() }

// NewItemset returns the canonical itemset of the given items.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// NewDatabase returns an empty transaction database.
func NewDatabase() *Database { return txdb.New() }

// EdgeBetween returns the canonical edge between two vertices.
func EdgeBetween(a, b VertexID) Edge { return graph.EdgeOf(a, b) }

// ReadNetwork parses a database network from its text serialization.
func ReadNetwork(r io.Reader) (*Network, *Dictionary, error) { return dbnet.Read(r) }

// ReadNetworkFile reads a database network from a file.
func ReadNetworkFile(path string) (*Network, *Dictionary, error) { return dbnet.ReadFile(path) }

// WriteNetwork serializes a database network (and optional dictionary) to w.
func WriteNetwork(w io.Writer, nw *Network, dict *Dictionary) error { return dbnet.Write(w, nw, dict) }

// WriteNetworkFile durably writes a database network to a file; it is
// WriteNetworkFileAtomic.
func WriteNetworkFile(path string, nw *Network, dict *Dictionary) error {
	return dbnet.WriteFileAtomic(path, nw, dict)
}

// WriteNetworkFileAtomic durably replaces a network file (write-to-temp +
// fsync + rename), so a crash mid-write can never tear it. It writes no
// journal-seq stamp: an update's write-back is a checkpoint of the update
// route, which stamps the file with its journal position.
func WriteNetworkFileAtomic(path string, nw *Network, dict *Dictionary) error {
	return dbnet.WriteFileAtomic(path, nw, dict)
}

// MineTCS runs the Theme Community Scanner baseline: it pre-filters candidate
// patterns by the per-vertex frequency threshold opts.Epsilon and detects a
// maximal pattern truss for each survivor. Exact only when Epsilon is 0.
func MineTCS(nw *Network, opts MiningOptions) *MiningResult { return core.TCS(nw, opts) }

// MineTCFA runs the exact Theme Community Finder Apriori algorithm.
func MineTCFA(nw *Network, opts MiningOptions) *MiningResult { return core.TCFA(nw, opts) }

// MineTCFI runs the exact Theme Community Finder Intersection algorithm — the
// paper's recommended miner and the fastest of the three.
func MineTCFI(nw *Network, opts MiningOptions) *MiningResult { return core.TCFI(nw, opts) }

// FindThemeCommunities mines the network with TCFI at the given cohesion
// threshold and returns every theme community (maximal connected subgraph of a
// maximal pattern truss).
func FindThemeCommunities(nw *Network, alpha float64) []Community {
	return core.TCFI(nw, core.Options{Alpha: alpha}).Communities()
}

// InduceThemeNetwork induces the theme network G_p of pattern p from the
// database network.
func InduceThemeNetwork(nw *Network, p Itemset) *ThemeNetwork { return nw.ThemeNetwork(p) }

// DetectMaximalPatternTruss runs MPTD on the theme network of p and returns
// the maximal pattern truss C*_p(alpha).
func DetectMaximalPatternTruss(nw *Network, p Itemset, alpha float64) *Truss {
	return truss.Detect(nw.ThemeNetwork(p), alpha)
}

// DecomposePattern decomposes the maximal pattern truss C*_p(0) of pattern p
// into the threshold-ordered levels that allow reconstructing C*_p(α) for any
// α without re-running MPTD.
func DecomposePattern(nw *Network, p Itemset) *Decomposition {
	return truss.Decompose(nw.ThemeNetwork(p))
}

// BuildIndex builds the TC-Tree index of the network as bytes. Write it as
// an index directory — the one persisted layout: a memory-mappable TCBIN
// shard file per top-level item plus an index.manifest — with Index.Write,
// or serve it in-process with Federation.AttachBuilt.
func BuildIndex(nw *Network, opts TreeBuildOptions) (*Index, error) {
	return tctree.BuildIndex(nw, opts)
}

// GenerateDataset generates one of the paper's dataset analogues by name
// ("BK", "GW", "AMINER" or "SYN") at the given scale factor (1.0 is the
// generator default; smaller is faster).
func GenerateDataset(name string, scale float64) (Dataset, error) {
	return gen.ByName(name, gen.Scale(scale))
}

// Loader types for building database networks from the raw formats of the
// paper's real datasets.
type (
	// CheckInLoadOptions configures LoadCheckIns.
	CheckInLoadOptions = loaders.CheckInOptions
	// CoAuthorLoadOptions configures LoadCitationArchive.
	CoAuthorLoadOptions = loaders.CoAuthorOptions
	// CoAuthorNetwork is a co-author database network loaded from a citation
	// archive, with its keyword dictionary and author names.
	CoAuthorNetwork = loaders.CoAuthorResult
	// PaperRecord is one publication record of a citation archive.
	PaperRecord = loaders.Paper
)

// LoadCheckIns builds a database network from the SNAP check-in format used
// by the Brightkite and Gowalla datasets: a friendship edge list and a
// check-in log, with each user's check-ins grouped into fixed-length periods
// (2 days by default) whose location sets become transactions.
func LoadCheckIns(edges, checkins io.Reader, opts CheckInLoadOptions) (*Network, *Dictionary, error) {
	return loaders.CheckIns(edges, checkins, opts)
}

// LoadCitationArchive builds a co-author database network from an AMINER-style
// citation archive: authors become vertices, co-authorship becomes edges, and
// each paper's abstract keywords become a transaction on every author.
func LoadCitationArchive(r io.Reader, opts CoAuthorLoadOptions) (*CoAuthorNetwork, error) {
	return loaders.LoadAMiner(r, opts)
}

// Observability types: the dependency-free metrics/tracing layer. An
// Observer records per-query latency and stage-timing histograms into a
// Prometheus-text-format registry and captures slow queries (with their full
// plan) into a ring buffer; inject it as FederationOptions.Recorder and hand
// it to the query server (QueryServerOptions.Obs) to expose GET /metrics and
// GET /api/v1/slowlog.
type (
	// Observer is the production QueryRecorder: metrics + slow-query log.
	Observer = obs.Observer
	// ObserverOptions configures NewObserver (registry, slow-query threshold
	// and ring size, structured logger).
	ObserverOptions = obs.ObserverOptions
	// QueryRecorder receives one QueryObservation per engine query.
	QueryRecorder = obs.Recorder
	// QueryObservation is one engine query as seen by a QueryRecorder.
	QueryObservation = obs.QueryObservation
	// MetricsRegistry holds metric families and renders them in the
	// Prometheus text exposition format.
	MetricsRegistry = obs.Registry
)

// RequestIDHeader is the HTTP header carrying a query's correlation ID
// through the server ("X-Request-ID"): accepted from clients, echoed on
// responses, attached to access-log and slow-query-log lines.
const RequestIDHeader = obs.HeaderRequestID

// NewObserver returns an Observer; see ObserverOptions.
func NewObserver(opts ObserverOptions) *Observer { return obs.NewObserver(opts) }

// QueryServerOptions configures NewQueryServer: the Federation whose
// networks it serves (attach each with its dictionary, vertex names and
// database network), the network behind the bare routes, replication roles
// and observability.
type QueryServerOptions = server.Options

// NewQueryServer returns an http.Handler exposing the query-answering API
// (see cmd/tcserver for the endpoints) over the networks of
// opts.Federation. A non-nil index is served too, as the network "default"
// behind the bare routes, in a new federation when opts.Federation is nil.
func NewQueryServer(idx *Index, opts QueryServerOptions) (http.Handler, error) {
	return server.New(idx, opts)
}

// Edge database networks — the extension the paper proposes as future work
// (Section 8), in which every edge carries a transaction database describing
// the interactions between its endpoints.
type (
	// EdgeNetwork is a network whose edges carry transaction databases.
	EdgeNetwork = edgenet.Network
	// EdgeThemeNetwork is the edge-induced theme network of a pattern.
	EdgeThemeNetwork = edgenet.ThemeNetwork
	// EdgeTruss is a maximal edge-pattern truss.
	EdgeTruss = edgenet.Truss
	// EdgeMiningOptions configures MineEdgeThemeCommunities.
	EdgeMiningOptions = edgenet.Options
	// EdgeMiningResult is the set of maximal edge-pattern trusses of a run.
	EdgeMiningResult = edgenet.Result
	// EdgeCommunity is one edge theme community.
	EdgeCommunity = edgenet.Community
)

// NewEdgeNetwork returns an edge database network with n vertices.
func NewEdgeNetwork(n int) *EdgeNetwork { return edgenet.New(n) }

// MineEdgeThemeCommunities mines every maximal edge-pattern truss of an edge
// database network.
func MineEdgeThemeCommunities(nw *EdgeNetwork, opts EdgeMiningOptions) *EdgeMiningResult {
	return edgenet.Find(nw, opts)
}

// DetectEdgePatternTruss computes the maximal edge-pattern truss of pattern p
// at the given cohesion threshold.
func DetectEdgePatternTruss(nw *EdgeNetwork, p Itemset, alpha float64) *EdgeTruss {
	return edgenet.Detect(nw.ThemeNetwork(p), alpha)
}
