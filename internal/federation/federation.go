// Package federation turns the single-network query engine into a
// multi-tenant serving layer: one Federation fronts many named networks —
// the "data warehouse of maximal pattern trusses" of the paper's Section 6,
// scaled from one indexed network per process to a whole warehouse of them.
//
// Each attached network is backed by its own engine.Engine (eager over a
// resident tree, or lazy over a sharded index directory) with its own shard
// pool, planner and counters, but every member shares two global resources:
//
//   - one result cache (engine.ResultCache) with namespaced keys, so a hot
//     tenant's working set competes with every other tenant's under a single
//     capacity bound, while lookups and invalidation stay tenant-scoped;
//   - one residency budget (engine.ResidencyGroup), so the number of lazily
//     loaded shards resident in memory is bounded across ALL networks and a
//     hot tenant cannot evict-starve the rest — eviction is globally
//     least-recently-used, whichever engine the victim shard belongs to.
//
// Networks attach and detach at runtime; detaching releases the network's
// share of both global resources (its cached answers are purged, its
// resident shards evicted) without disturbing any other tenant — the
// network-granularity analogue of the engine's per-shard invalidation after
// a delta.
//
// Cross-network batch queries (QueryAll, TopKAll) run one query against
// every attached network on a bounded pool, admitting the networks in name
// order, and TopKAll merges the ranked answers into one deterministic
// cohesion-ordered list.
//
// A Federation is safe for concurrent use.
package federation

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
	"themecomm/internal/tctree"
	"themecomm/internal/trace"
	"themecomm/internal/truss"
)

// Options configures a Federation and the engines it builds for attached
// networks.
type Options struct {
	// Workers bounds each member engine's concurrent shard traversals.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the capacity of the shared result cache, global across
	// every network. Zero or negative disables caching for all members.
	CacheSize int
	// MaxResidentShards is the shared residency budget: the number of lazily
	// loaded shards kept in memory across ALL networks at once. Zero or
	// negative means unlimited. Eager (fully resident) networks are outside
	// the budget.
	MaxResidentShards int
	// MaxResidentBytes is the shared byte-based residency budget, enforced
	// alongside MaxResidentShards across every network: the summed size of
	// resident lazy shards' mapped files. Zero or negative means unlimited.
	MaxResidentBytes int64
	// Recorder is passed through to every member engine
	// (engine.Options.Recorder): each tenant's queries report to the one
	// injected recorder under the tenant's name, so a single observer serves
	// per-network metrics for the whole federation. Nil disables observation.
	Recorder trace.Recorder
}

// NetworkOptions carries the per-network presentation metadata a serving
// layer needs alongside the engine.
type NetworkOptions struct {
	// Dictionary names the items of the network's item universe; nil means
	// queries must use numeric item identifiers.
	Dictionary *itemset.Dictionary
	// VertexNames maps vertex identifiers to display names; may be nil.
	VertexNames []string
	// Network is the database network the index was built from. It makes
	// the tenant writable — a journaled member of a replication primary —
	// and is unused otherwise; a network attached without it serves queries
	// but rejects deltas.
	Network *dbnet.Network
	// NetworkPath, when non-empty, is the file every checkpoint writes the
	// updated network back to, stamped with its journal position, so a
	// restart reloads the state the index was maintained against.
	NetworkPath string
}

// Network is one attached tenant: a named engine plus its presentation
// metadata. Accessors are safe for concurrent use; the fields never change
// after attach (deltas mutate the database network's contents, serialized by
// the update lock of the replication member the tenant is).
type Network struct {
	name  string
	eng   *engine.Engine
	opts  NetworkOptions
	names *QuotedNames
}

// padDictionary extends an updatable tenant's dictionary to cover the
// network's whole item universe, so a delta introducing a new item name can
// never be assigned the identifier of an existing unnamed item (a network
// file may carry fewer "I" name lines than it has items).
func padDictionary(opts NetworkOptions) {
	if opts.Network == nil || opts.Dictionary == nil {
		return
	}
	if items := opts.Network.Items(); items.Len() > 0 {
		opts.Dictionary.PadTo(int(items.Last()) + 1)
	}
}

// Name returns the network's federation-unique name.
func (n *Network) Name() string { return n.name }

// Engine returns the network's query engine.
func (n *Network) Engine() *engine.Engine { return n.eng }

// Dictionary returns the network's item dictionary; it may be nil.
func (n *Network) Dictionary() *itemset.Dictionary { return n.opts.Dictionary }

// QuotedNames returns the network's JSON-quoted item and vertex names, the
// tables answer encoders render communities through.
func (n *Network) QuotedNames() *QuotedNames { return n.names }

// DatabaseNetwork returns the database network the tenant's index is
// maintained against; nil when the tenant was attached without one (it then
// rejects deltas).
func (n *Network) DatabaseNetwork() *dbnet.Network { return n.opts.Network }

// Checkpoint persists the tenant's in-memory state stamped with journal
// position seq, in the order recovery relies on: the network file is written
// back first, stamped seq, and only then does the engine commit its dirty
// shards with the manifest stamped seq (engine.Checkpoint) — so the network
// file, the only rebuild source, is never behind the index. A failed
// write-back commits nothing and leaves the dirty shards for the next
// checkpoint. A tenant without an on-disk index persists the network file
// alone, and one attached without a NetworkPath persists only the index.
// Callers serialize it with the tenant's updates.
func (n *Network) Checkpoint(seq uint64) error {
	var writeBack func() error
	if n.opts.NetworkPath != "" {
		writeBack = func() error {
			return dbnet.WriteFileAtomicStamped(n.opts.NetworkPath, n.opts.Network, n.opts.Dictionary, seq)
		}
	}
	if _, err := n.eng.Checkpoint(seq, writeBack); err != nil {
		return n.wrapErr(fmt.Errorf("checkpoint: %w", err))
	}
	return nil
}

// Stamps returns the journal positions the tenant's files are stamped with:
// networkSeq from the network file (0 without a NetworkPath, a file, or a
// stamp) and indexSeq from the index manifest (0 without an on-disk index).
func (n *Network) Stamps() (networkSeq, indexSeq uint64, err error) {
	if n.opts.NetworkPath != "" {
		networkSeq, err = dbnet.ReadJournalSeq(n.opts.NetworkPath)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, 0, n.wrapErr(err)
		}
	}
	return networkSeq, n.eng.IndexJournalSeq(), nil
}

// wrapErr annotates an error with the network name.
func (n *Network) wrapErr(err error) error {
	return fmt.Errorf("federation: network %q: %w", n.name, err)
}

// Federation manages many named networks sharing one result cache and one
// residency budget.
type Federation struct {
	opts  Options
	cache *engine.ResultCache // nil when caching is disabled
	res   *engine.ResidencyGroup
	// netSem bounds concurrent per-network queries of cross-network calls.
	netSem chan struct{}

	mu       sync.RWMutex
	networks map[string]*Network

	queryAlls atomic.Uint64
	topKAlls  atomic.Uint64
}

// New returns an empty Federation. Attach networks with AttachBuilt (an
// index built in-process) / AttachIndex (or build one from a directory with
// Discover).
func New(opts Options) *Federation {
	f := &Federation{
		opts:     opts,
		res:      engine.NewResidencyGroupBytes(opts.MaxResidentShards, opts.MaxResidentBytes),
		networks: make(map[string]*Network),
	}
	if opts.CacheSize > 0 {
		f.cache = engine.NewResultCache(opts.CacheSize)
	}
	f.netSem = make(chan struct{}, runtime.GOMAXPROCS(0))
	return f
}

// Cache returns the shared result cache; nil when caching is disabled.
func (f *Federation) Cache() *engine.ResultCache { return f.cache }

// ResidencyGroup returns the shared residency group enforcing the global
// budget.
func (f *Federation) ResidencyGroup() *engine.ResidencyGroup { return f.res }

// nameSeparators are the characters a network name may not hold besides the
// control characters: path separators and whitespace.
const nameSeparators = "/\\ \t\n\r"

// SafeName returns a valid network name for name: name itself when it is
// valid, and otherwise name with every separator, whitespace or control
// character replaced by '_' — and an empty or dot name by underscores — so
// a name taken from a file name always attaches.
func SafeName(name string) string {
	if validateName(name) == nil {
		return name
	}
	safe := strings.Map(func(r rune) rune {
		if strings.ContainsRune(nameSeparators, r) || r < 0x20 || r == 0x7f {
			return '_'
		}
		return r
	}, name)
	if safe == "" || safe == "." || safe == ".." {
		safe = strings.Repeat("_", max(len(safe), 1))
	}
	return safe
}

// validateName rejects names that cannot serve as a cache namespace or a URL
// path segment.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("federation: empty network name")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("federation: invalid network name %q", name)
	}
	if strings.ContainsAny(name, nameSeparators) {
		return fmt.Errorf("federation: network name %q contains a separator or whitespace", name)
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("federation: network name %q contains a control character", name)
		}
	}
	return nil
}

// engineOptions is the engine configuration of a member network: the
// federation's per-engine knobs plus the shared cache (namespaced by the
// network name) and the shared residency group.
func (f *Federation) engineOptions(name string) engine.Options {
	return engine.Options{
		Workers:         f.opts.Workers,
		SharedCache:     f.cache,
		CacheNamespace:  name,
		SharedResidency: f.res,
		Recorder:        f.opts.Recorder,
	}
}

// attach registers a built engine under name.
func (f *Federation) attach(name string, eng *engine.Engine, opts NetworkOptions) error {
	if err := validateName(name); err != nil {
		return err
	}
	padDictionary(opts)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.networks[name]; dup {
		return fmt.Errorf("federation: network %q is already attached", name)
	}
	f.networks[name] = &Network{name: name, eng: eng, opts: opts, names: NewQuotedNames(opts.Dictionary, opts.VertexNames)}
	return nil
}

// AttachBuilt attaches an eager network serving an index built in-process
// (tctree.BuildIndex) from its bytes on the heap. The network shares the
// federation's result cache; having no lazy shards, it consumes none of the
// residency budget.
func (f *Federation) AttachBuilt(name string, idx *tctree.Index, opts NetworkOptions) error {
	if err := validateName(name); err != nil {
		return err
	}
	eng, err := engine.New(idx, f.engineOptions(name))
	if err != nil {
		return fmt.Errorf("federation: network %q: %w", name, err)
	}
	return f.attach(name, eng, opts)
}

// AttachIndex attaches a lazy network serving a sharded on-disk index: its
// shards load on first touch and stay resident only within the federation's
// shared budget.
func (f *Federation) AttachIndex(name string, idx *tctree.ShardedIndex, opts NetworkOptions) error {
	if err := validateName(name); err != nil {
		return err
	}
	eng, err := engine.NewLazy(idx, f.engineOptions(name))
	if err != nil {
		return fmt.Errorf("federation: network %q: %w", name, err)
	}
	return f.attach(name, eng, opts)
}

// Detach removes the network and releases its share of the global resources:
// its cached answers are purged from the shared cache and its resident
// shards are evicted, returning their budget to the remaining tenants. Other
// networks' cache entries and resident shards are untouched — detaching is
// the network-granularity analogue of a delta's per-shard invalidation.
func (f *Federation) Detach(name string) error {
	f.mu.Lock()
	n, ok := f.networks[name]
	if ok {
		delete(f.networks, name)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("federation: no network %q", name)
	}
	n.eng.Release()
	return nil
}

// Network returns the named network.
func (f *Federation) Network(name string) (*Network, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, ok := f.networks[name]
	return n, ok
}

// Names returns the attached network names in ascending order.
func (f *Federation) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.networks))
	for name := range f.networks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NumNetworks returns the number of attached networks.
func (f *Federation) NumNetworks() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.networks)
}

// PatternResolver maps a cross-network query pattern onto one network's item
// space. Item identifiers are per-network (each dictionary interns its own
// names), so a federated pattern query resolves the pattern once per tenant:
// return nil for "every item" (query by alpha) and an empty non-nil itemset
// for "nothing resolves here" (the network answers nothing).
type PatternResolver func(*Network) itemset.Itemset

// Constant returns a resolver handing every network the same pattern — the
// shared-item-space case.
func Constant(q itemset.Itemset) PatternResolver {
	return func(*Network) itemset.Itemset { return q }
}

// networkTask is one network of a cross-network schedule with its resolved
// per-network pattern.
type networkTask struct {
	net *Network
	// q is resolve(net), computed once: it serves the query execution and
	// the caller's response rendering.
	q itemset.Itemset
}

// snapshot returns the attached networks in ascending name order, each with
// its resolved pattern.
func (f *Federation) snapshot(resolve PatternResolver) []networkTask {
	f.mu.RLock()
	tasks := make([]networkTask, 0, len(f.networks))
	for _, n := range f.networks {
		tasks = append(tasks, networkTask{net: n, q: resolve(n)})
	}
	f.mu.RUnlock()
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].net.name < tasks[j].net.name })
	return tasks
}

// forEach runs fn(i, tasks[i]) for every task on at most GOMAXPROCS
// goroutines (par.For), admitting the tasks in order, and returns each
// task's error annotated with its network, after every fn returned. Every
// call holds a netSem slot, so the bound holds across concurrent
// cross-network calls too; a task whose context ends while it waits for a
// slot fails with the context's error and does not run.
func (f *Federation) forEach(ctx context.Context, tasks []networkTask, fn func(i int, t networkTask) error) []error {
	errs := make([]error, len(tasks))
	par.For(len(tasks), cap(f.netSem), func(i int) {
		select {
		case f.netSem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = fmt.Errorf("network %q: %w", tasks[i].net.name, ctx.Err())
			return
		}
		defer func() { <-f.netSem }()
		if err := fn(i, tasks[i]); err != nil {
			errs[i] = fmt.Errorf("network %q: %w", tasks[i].net.name, err)
		}
	})
	return errs
}

// NetworkResult is one network's answer to a cross-network query.
type NetworkResult struct {
	// Network is the tenant's name.
	Network string
	// Pattern is the query pattern as resolved into this network's item
	// space (nil = every item), so callers can render the answer without
	// re-resolving.
	Pattern itemset.Itemset
	// Result is the network's answer; nil when Err is set.
	Result *engine.Answer
	// Err is the network's failure (lazy shard-load error), if any.
	Err error
}

// QueryAll answers one query against every attached network; resolve maps
// the query pattern into each tenant's item space (dictionaries intern
// independently, so the same theme has different item identifiers per
// network; Constant serves a shared item space). Networks are queried
// concurrently (at most GOMAXPROCS at once), admitted in name order;
// each network's own planner, cache namespace and worker pool serve its
// share exactly as a direct Engine.QueryContext would, so per-network
// answers match standalone engines. The context reaches every member engine: the request correlation
// ID it carries (obs.WithRequestID) labels all the per-network observations
// of one federated query, and cancelling it stops every member at its next
// shard. Results are returned in ascending network-name order; the error
// joins every per-network failure, annotated with its network.
func (f *Federation) QueryAll(ctx context.Context, resolve PatternResolver, alphaQ float64) ([]NetworkResult, error) {
	f.queryAlls.Add(1)
	tasks := f.snapshot(resolve)
	out := make([]NetworkResult, len(tasks))
	errs := f.forEach(ctx, tasks, func(i int, t networkTask) (err error) {
		out[i].Result, err = t.net.eng.QueryContext(ctx, t.q, alphaQ)
		return err
	})
	for i, t := range tasks {
		out[i].Network, out[i].Pattern, out[i].Err = t.net.name, t.q, errs[i]
	}
	return out, errors.Join(errs...)
}

// NetworkRanked is one community of a cross-network answer: the engine's
// record annotated with the network it came from.
type NetworkRanked struct {
	// Network is the name of the network the community belongs to.
	Network string
	truss.Community
}

// TopKAll answers one query against every attached network, like QueryAll,
// and merges the per-network rankings into one list ordered exactly like
// Engine.TopKWithResultContext — cohesion descending, then size, then the
// deterministic pattern/vertex tiebreak — with the network name as the final
// tiebreak, so the merge is deterministic across runs. k <= 0 means every community. The
// global top k is exact: it can only contain communities from some network's
// own top k, which is what each tenant computes. Networks that fail
// contribute nothing; the error joins their failures.
func (f *Federation) TopKAll(ctx context.Context, resolve PatternResolver, alphaQ float64, k int) ([]NetworkRanked, error) {
	f.topKAlls.Add(1)
	tasks := f.snapshot(resolve)
	parts := make([][]NetworkRanked, len(tasks))
	errs := f.forEach(ctx, tasks, func(i int, t networkTask) error {
		_, ranked, err := t.net.eng.TopKWithResultContext(ctx, t.q, alphaQ, k)
		if err != nil {
			return err
		}
		parts[i] = make([]NetworkRanked, len(ranked))
		for j, rc := range ranked {
			parts[i][j] = NetworkRanked{Network: t.net.name, Community: rc}
		}
		return nil
	})
	merged := slices.Concat(parts...)
	sort.Slice(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		return rankedLess(&a.Community, a.Network, &b.Community, b.Network)
	})
	if k > 0 && k < len(merged) {
		merged = merged[:k]
	}
	return merged, errors.Join(errs...)
}

// rankedLess is the cross-network order of TopKAll: engine.LessRanked, then
// the network name as the final tiebreak.
func rankedLess(a *truss.Community, aNet string, b *truss.Community, bNet string) bool {
	if engine.LessRanked(a, b) {
		return true
	}
	if engine.LessRanked(b, a) {
		return false
	}
	return aNet < bNet
}
