// Command tcserver serves theme-community queries over HTTP from TC-Tree
// index directories built by tcindex. An index is served lazily — a shard's
// file is only mapped on the first query that touches it, once per file
// generation, and fully re-validated on every load; -maxresident bounds how
// many shards stay in memory. Queries go through the engine's
// planner: shards whose α* bound proves an empty answer are skipped without
// a load.
//
// The server always fronts a federation of named networks, all sharing one
// result cache and one residency budget (-maxresident bounds resident shards
// across ALL networks), queryable individually under /api/v1/{network}/...
// or together via /api/v1/queryall. With -networks every index directory
// inside the given directory becomes a network (a sibling <name>.dbnet file
// provides its item dictionary and makes it updatable); -tree attaches one
// more index directory, named like -networks would name it (bk.index serves
// as "bk"), with -net as its database network. The bare routes
// (/api/v1/query, …) serve -default, else the -tree network, else the
// lexically first.
//
// Usage:
//
//	tcserver -tree bk.index -net bk.dbnet -addr :8080 -workers 8 -cache 1024
//	tcserver -tree bk.index -maxresident 16        # bounded residency
//	tcserver -networks warehouse/ -maxresident 64  # every index in warehouse/
//	tcserver -networks warehouse/ -default bk      # bare routes serve "bk"
//	tcserver -networks warehouse/ -journal wal/    # the journal in wal/, not warehouse/journal/
//	tcserver -networks replica/ -replicaof http://primary:8080   # read-only replica
//
// Every server but a replica is a replication primary: every update to a
// network with a database network is appended to a durable delta journal and
// applied in memory before the response; shard rebuilds fold in via a
// background checkpoint (-checkpoint). The journal is -journal, or else
// journal/ beside the indexes, where tcupdate finds it too; regenerating a
// network file means deleting it. Replicas bootstrap from a file copy of the
// primary's networks directory, tail GET /api/v1/journal, replay each record
// through the same apply path, and serve reads; their writes answer 403 with
// a Location header naming the primary. See docs/ARCHITECTURE.md.
//
// Every request is traced: the server accepts a client X-Request-ID header
// (or assigns one), echoes it on the response, and stamps it on the JSON
// access log and the slow-query log, so one grep connects a client-reported
// query to its server-side trace. Prometheus metrics (HTTP, per-query
// latency/stage histograms, engine/cache/federation counters) are exposed at
// GET /metrics; queries slower than -slowquery are captured with their full
// plan at GET /api/v1/slowlog; -pprof serves net/http/pprof on a separate
// listener. See docs/OBSERVABILITY.md.
//
// Endpoints (see docs/API.md for request/response schemas):
//
//	GET  /healthz                           health: version, uptime, per-network readiness
//	GET  /metrics                           Prometheus text-format metrics
//	GET  /api/v1/slowlog                    slow-query ring buffer (-slowquery)
//	GET  /api/v1/stats                      index statistics
//	GET  /api/v1/query?alpha=0.5            query by cohesion threshold
//	GET  /api/v1/query?pattern=a,b&alpha=0  query by pattern
//	GET  /api/v1/query?alpha=0.2&k=10       top-k communities by cohesion
//	GET  /api/v1/explain?pattern=a,b&alpha=0  per-shard query plan + execution counters
//	POST /api/v1/batch                      many queries in one request
//	GET  /api/v1/enginestats                engine counters (shards, residency, cache, planner)
//	GET  /api/v1/patterns?length=2          list indexed patterns of a length
//	GET  /api/v1/vertex?id=7&alpha=0.2      theme communities containing a vertex
//	POST /api/v1/update                     apply a network delta in place (needs -net,
//	                                        or a sibling <name>.dbnet with -networks)
//	GET  /api/v1/networks                   list the served networks
//	GET  /api/v1/{network}/query|explain|batch|enginestats|stats|patterns|vertex|update
//	GET  /api/v1/queryall?alpha=0.2&k=10    one query across every network, merged by cohesion
//	GET  /api/v1/federationstats            shared cache/budget state + per-network counters
//	GET  /api/v1/journal?from=0&wait=30     replication feed: journal records as NDJSON (not on a replica)
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"strings"
	"time"

	"themecomm"
	"themecomm/internal/client"
	"themecomm/internal/federation"
	"themecomm/internal/journal"
	"themecomm/internal/replication"
	"themecomm/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcserver: ")

	treePath := flag.String("tree", "", "index directory built by tcindex, served as the network named after it (bk.index → bk)")
	networksDir := flag.String("networks", "", "serve every indexed network found in this directory")
	defaultNetwork := flag.String("default", "", "network behind the bare routes (default: the -tree network, else the lexically first)")
	netPath := flag.String("net", "", "database network file of the -tree index: resolves item names and enables POST update, written back at each checkpoint")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "shard-traversal parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 1024, "result-cache entries, shared across every network (0 disables caching)")
	maxResident := flag.Int("maxresident", 0, "max shards kept in memory across every network (0 = unlimited)")
	maxResidentBytes := flag.Int64("maxresidentbytes", 0, "byte budget of resident shards across every network (0 = unlimited)")
	slowQuery := flag.Duration("slowquery", 0, "slow-query threshold: queries at least this slow are captured with their full plan into GET /api/v1/slowlog (0 disables)")
	slowlogSize := flag.Int("slowlogsize", 128, "slow-query ring-buffer capacity")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this SEPARATE address (e.g. localhost:6060); empty disables")
	journalDir := flag.String("journal", "", "append every update to the delta journal in this directory (default: journal/ beside the indexes)")
	replicaOf := flag.String("replicaof", "", "replica mode: serve read-only and tail the journal of the primary at this base URL")
	checkpointEvery := flag.Duration("checkpoint", 0, "checkpoint cadence: how often journaled updates are folded into the on-disk index and network file (0 = 5s, negative disables)")
	quiet := flag.Bool("quiet", false, "suppress structured JSON logging (access log, slow-query warnings); metrics and the slow-query ring stay on")
	flag.Parse()

	if *treePath == "" && *networksDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// One observer is shared by every layer: the engines record per-query
	// observations into it, the server layers HTTP metrics and request-ID
	// propagation over it, and GET /metrics renders its registry.
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	observer := themecomm.NewObserver(themecomm.ObserverOptions{
		SlowThreshold: *slowQuery,
		SlowLogSize:   *slowlogSize,
		Logger:        logger,
	})

	fopts := themecomm.FederationOptions{
		Workers:           *workers,
		CacheSize:         *cacheSize,
		MaxResidentShards: *maxResident,
		MaxResidentBytes:  *maxResidentBytes,
		Recorder:          observer,
	}
	var fed *federation.Federation
	if *networksDir == "" {
		fed = themecomm.NewFederation(fopts)
	} else {
		var err error
		if fed, err = themecomm.OpenFederation(*networksDir, fopts); err != nil {
			log.Fatal(err)
		}
	}
	opts := server.Options{Federation: fed, DefaultNetwork: *defaultNetwork, Obs: observer}
	if *treePath != "" {
		// The same attach -networks runs per index; with -net the network is
		// writable, written back at every checkpoint.
		name := federation.NetworkName(*treePath)
		if err := fed.AttachIndexDir(name, *treePath, *netPath); err != nil {
			log.Fatal(err)
		}
		if opts.DefaultNetwork == "" {
			opts.DefaultNetwork = name
		}
	}
	names := fed.Names()
	log.Printf("serving %d networks: %s (shared cache %d, shared residency budget %d)",
		len(names), strings.Join(names, ", "), *cacheSize, *maxResident)

	if *journalDir != "" && *replicaOf != "" {
		log.Fatal("-journal and -replicaof are mutually exclusive: a server is a primary or a replica, not both")
	}
	if *replicaOf != "" {
		startReplica(&opts, *replicaOf, *checkpointEvery, logger)
	} else {
		startPrimary(&opts, *journalDir, *checkpointEvery, logger)
	}

	srv, err := server.New(nil, opts)
	if err != nil {
		log.Fatal(err)
	}

	// pprof gets its OWN listener (http.DefaultServeMux, where the blank
	// net/http/pprof import registered /debug/pprof/...), so profiling is
	// never exposed on the query-serving address.
	if *pprofAddr != "" {
		pprofLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listener: %v", err)
		}
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", pprofLn.Addr())
			if err := http.Serve(pprofLn, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// Listen explicitly before serving so the bound address — the actual one,
	// not the requested one — is logged once the server is accepting. With
	// -addr :0 the kernel picks a free port, and scripts (e.g. the e2e smoke
	// harness) parse it from the "listening on" line instead of guessing
	// fixed ports.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("listening on %s", ln.Addr())
	if err := httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// startPrimary makes every network holding its database network a member of
// a journaled primary (replication.OpenPrimary), which also serves the
// replication feed; without one no journal is opened and updates answer 409.
func startPrimary(opts *server.Options, dir string, checkpointEvery time.Duration, logger *slog.Logger) {
	p, stats, err := replication.OpenPrimary(opts.Federation, dir, replication.Options{
		CheckpointInterval: checkpointEvery,
		Logger:             logger,
	})
	if err != nil {
		log.Fatalf("journal: %v", err)
	}
	if p == nil {
		log.Printf("no network has a database network (.dbnet): updates are disabled and no journal is opened")
		return
	}
	opts.Primary = p
	log.Printf("replication primary: %d journaled networks, journal %s at seq %d (recovery replayed %d, skipped %d, resynced %d)",
		len(replication.Writable(opts.Federation)), p.Journal().Dir(), stats.Head, stats.Replayed, stats.Skipped, len(stats.Resynced))
}

// startReplica marks the server read-only, registers the members, and starts
// the two replica loops: the journal tailer (long-polling the primary's feed
// and replaying each record) and the background checkpoint loop. Replay
// failures are fail-stop — a replica that cannot follow the journal must not
// keep serving silently stale answers.
func startReplica(opts *server.Options, primaryURL string, checkpointEvery time.Duration, logger *slog.Logger) {
	rep := replication.NewReplica(replication.Options{CheckpointInterval: checkpointEvery, Logger: logger})
	members := replication.Writable(opts.Federation)
	if len(members) == 0 {
		log.Fatal("no replicable networks: replica mode needs a sibling <name>.dbnet next to each index")
	}
	for _, n := range members {
		if err := rep.Add(n); err != nil {
			log.Fatalf("replica member %s: %v", n.Name(), err)
		}
	}
	opts.ReadOnly = true
	opts.PrimaryURL = strings.TrimRight(primaryURL, "/")
	opts.ReplicationStatus = rep.Status

	from := rep.From()
	c := client.New(primaryURL, client.Options{})
	go func() {
		err := c.TailJournal(context.Background(), client.TailOptions{
			From:     from,
			OnRecord: func(rec journal.Record) error { return rep.ApplyRecord(&rec) },
			OnHead:   rep.ObserveHead,
		})
		log.Fatalf("journal tail stopped: %v", err)
	}()
	rep.Start()
	log.Printf("replica of %s: tailing the journal from seq %d", primaryURL, from)
}
