package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"themecomm"
	"themecomm/internal/client"
	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/itemset"
	"themecomm/internal/journal"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// The ladder replays a subsample of a run's operations one at a time through
// the public entry point of each layer, deepest last: the typed client against
// the live server, the HTTP handler in-process, the engine, the shard loader.
// Each rung does everything the rungs below it do, so the difference between
// neighbouring rungs is the upper layer's own share. Every call is a span.

// engineOptions are the workload's server flags as engine options.
func (s spec) engineOptions() engine.Options {
	return engine.Options{CacheSize: s.cacheSize, MaxResidentShards: s.maxResident}
}

// copySite writes a second, pristine copy of the site's networks directory:
// the ladder's in-process engines must not share files a live journaled
// server checkpoints into. The network file comes from the bytes kept at
// build time: a checkpoint stamps the served one with a journal position no
// fresh journal reaches.
func copySite(st *site, dir string) (networksDir string, err error) {
	networksDir = filepath.Join(dir, "networks")
	if err := os.MkdirAll(networksDir, 0o755); err != nil {
		return "", err
	}
	if _, err := st.tree.WriteShardedAs(filepath.Join(networksDir, networkName+".index"), tctree.FormatTCBIN); err != nil {
		return "", err
	}
	return networksDir, os.WriteFile(filepath.Join(networksDir, networkName+".dbnet"), st.netData, 0o644)
}

// readLadder holds the rungs of the read path.
type readLadder struct {
	tr   *tracer
	raw  *conn
	cl   *client.Client
	srv  http.Handler
	eng  *engine.Engine
	idx  *tctree.ShardedIndex
	root []itemset.Item // shard root items, ascending

	ops int
	// Per-rung totals over the replayed operations.
	rawT, clientT, serverT, engineT, loadT time.Duration
	loads                                  int
}

// newReadLadder opens the in-process rungs over networksDir with the
// workload's options. The in-process server gets an observer and a JSON
// access log like the spawned one, so its middleware does the same work.
func newReadLadder(tr *tracer, s spec, base, networksDir string) (*readLadder, error) {
	observer := obs.NewObserver(obs.ObserverOptions{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	fed, err := themecomm.OpenFederation(networksDir, federation.Options{
		CacheSize: s.cacheSize, MaxResidentShards: s.maxResident, Recorder: observer,
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(nil, server.Options{Federation: fed, Obs: observer})
	if err != nil {
		return nil, err
	}
	indexDir := filepath.Join(networksDir, networkName+".index")
	engIdx, err := tctree.OpenSharded(indexDir)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewLazy(engIdx, s.engineOptions())
	if err != nil {
		return nil, err
	}
	idx, err := tctree.OpenSharded(indexDir)
	if err != nil {
		return nil, err
	}
	return &readLadder{
		tr: tr, raw: newConn(base), cl: client.New(base, client.Options{Retries: -1}),
		srv: srv, eng: eng, idx: idx, root: idx.Items(),
	}, nil
}

func (l *readLadder) close() { l.raw.close() }

// serve runs one read through the in-process handler.
func (l *readLadder) serve(ctx context.Context, o op) error {
	rec := httptest.NewRecorder()
	l.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, o.path, nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: HTTP %d", o.path, rec.Code)
	}
	return nil
}

// engineCall runs one read through the engine entry point its route uses.
// parent is the span the call's child spans hang from (0 when warming up).
func (l *readLadder) engineCall(ctx context.Context, o op, parent, index int) error {
	switch o.kind {
	case kindTopK:
		_, _, err := l.eng.TopKWithResultContext(ctx, o.pattern, o.alpha, o.k)
		return err
	case kindStream:
		st, err := l.eng.StreamTopK(ctx, o.pattern, o.alpha, o.k)
		if err != nil {
			return err
		}
		defer st.Close()
		first := 0
		if parent != 0 {
			first = l.tr.start(parent, index, "engine.stream.first")
		}
		for n := 0; ; n++ {
			rc, err := st.Next()
			if n == 0 && first != 0 {
				l.tr.end(first)
			}
			if err != nil {
				return err
			}
			if rc == nil {
				return nil
			}
		}
	}
	_, err := l.eng.QueryContext(ctx, o.pattern, o.alpha)
	return err
}

// warm gives the in-process rungs the cache and residency state the warm-up
// gave the live server.
func (l *readLadder) warm(ctx context.Context, ops []op) error {
	for _, o := range ops {
		if err := l.serve(ctx, o); err != nil {
			return err
		}
		if err := l.engineCall(ctx, o, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

var engineSpanNames = [numKinds]string{
	kindQBP: "engine.QueryContext", kindQBA: "engine.QueryContext",
	kindTopK: "engine.TopKWithResultContext", kindStream: "engine.StreamTopK",
}

// replay sends read operation index down the ladder.
func (l *readLadder) replay(ctx context.Context, o op, index int) error {
	root := l.tr.start(0, index, "op."+kindNames[o.kind])
	defer l.tr.end(root)
	var err error
	timed := func(name string, total *time.Duration, fn func(id int)) {
		id := l.tr.start(root, index, name)
		fn(id)
		l.tr.end(id)
		sp := l.tr.spans[id-1]
		*total += sp.End.Sub(sp.Start)
	}

	timed("loadgen.raw", &l.rawT, func(int) {
		var status int
		if status, _, _, err = l.raw.do(ctx, o, false); err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d", o.path, status)
		}
	})
	if err != nil {
		return err
	}
	timed("client.Do", &l.clientT, func(int) {
		q := client.Query{Pattern: o.names, Alpha: o.alpha, K: o.k}
		if o.kind == kindStream {
			_, err = l.cl.Stream(ctx, q, client.StreamHandler{})
		} else {
			_, _, err = l.cl.Do(ctx, q)
		}
	})
	if err != nil {
		return err
	}
	timed("server.ServeHTTP", &l.serverT, func(int) { err = l.serve(ctx, o) })
	if err != nil {
		return err
	}
	before := l.eng.Stats().LazyLoads
	timed(engineSpanNames[o.kind], &l.engineT, func(id int) { err = l.engineCall(ctx, o, id, index) })
	if err != nil {
		return err
	}
	if o.kind == kindTopK {
		// Explain executes the same (q, α) without the result cache and
		// without ranking: the top-k span minus this one is the ranking.
		l.tr.call(root, index, "engine.Explain", func() { _, err = l.eng.Explain(o.pattern, o.alpha) })
		if err != nil {
			return err
		}
	}
	// The engine rung loaded this many shards itself; replay as many loads
	// through the storage layer's own entry point.
	loaded := int(l.eng.Stats().LazyLoads - before)
	items := l.root
	if o.pattern != nil {
		items = o.pattern
	}
	for n := 0; n < loaded && len(items) > 0; n++ {
		item := items[n%len(items)]
		if _, ok := l.idx.Entry(item); !ok {
			continue
		}
		timed("tctree.LoadShardView", &l.loadT, func(int) { _, err = l.idx.LoadShardView(item) })
		if err != nil {
			return err
		}
		l.loads++
	}
	l.ops++
	return nil
}

// perOpMS is a rung's mean per replayed operation, in milliseconds.
func (l *readLadder) perOpMS(total time.Duration) float64 {
	if l.ops == 0 {
		return 0
	}
	return float64(total) / float64(l.ops) / float64(time.Millisecond)
}

// writeLadder holds the rungs of the write path, each over its own pristine
// copy of the index so no rung sees another's updates.
type writeLadder struct {
	tr *tracer

	// Rung state: the raw delta/rebuild calls work on nwRaw; the engine rung
	// on eng + nwEng; the replication rung on primary (its federation read
	// its own network copy).
	nwRaw   *dbnet.Network
	dict    *itemset.Dictionary
	rawPath string
	jRaw    *journal.Journal
	eng     *engine.Engine
	nwEng   *dbnet.Network
	primary *replication.Primary
	jPrim   *journal.Journal

	updates     int
	encodeBytes int
	rawParts    time.Duration // AffectedItems + Apply + RebuildSubtrees on nwRaw
	applyT      time.Duration // engine.ApplyDeltaInMemory
}

func newWriteLadder(tr *tracer, st *site, s spec, dir string) (*writeLadder, error) {
	l := &writeLadder{tr: tr, dict: st.dict}
	var err error
	engDir, err := copySite(st, filepath.Join(dir, "engine"))
	if err != nil {
		return nil, err
	}
	primDir, err := copySite(st, filepath.Join(dir, "primary"))
	if err != nil {
		return nil, err
	}
	l.rawPath = filepath.Join(dir, "raw.dbnet")
	if l.nwRaw, _, err = dbnet.ReadFile(filepath.Join(engDir, networkName+".dbnet")); err != nil {
		return nil, err
	}
	l.nwRaw.Freeze()
	if l.jRaw, err = journal.Open(filepath.Join(dir, "journal-raw"), journal.Options{}); err != nil {
		return nil, err
	}
	idx, err := tctree.OpenSharded(filepath.Join(engDir, networkName+".index"))
	if err != nil {
		return nil, err
	}
	if l.eng, err = engine.NewLazy(idx, s.engineOptions()); err != nil {
		return nil, err
	}
	if l.nwEng, _, err = dbnet.ReadFile(filepath.Join(engDir, networkName+".dbnet")); err != nil {
		return nil, err
	}
	l.nwEng.Freeze()

	fed, err := themecomm.OpenFederation(primDir, federation.Options{CacheSize: s.cacheSize, MaxResidentShards: s.maxResident})
	if err != nil {
		return nil, err
	}
	if l.jPrim, err = journal.Open(filepath.Join(dir, "journal-primary"), journal.Options{}); err != nil {
		return nil, err
	}
	// Checkpoints are explicit spans here, not a background loop.
	l.primary = replication.NewPrimary(l.jPrim, replication.PrimaryOptions{CheckpointInterval: -1})
	member, ok := fed.Network(networkName)
	if !ok {
		return nil, fmt.Errorf("ladder federation has no network %q", networkName)
	}
	if err := l.primary.Add(member); err != nil {
		return nil, err
	}
	if _, err := l.primary.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *writeLadder) close() {
	_ = l.jRaw.Close()  // scratch journals: nothing reads them again
	_ = l.jPrim.Close() //
}

// replay sends update j down the write ladder. checkpoint adds the
// checkpoint rungs after it.
func (l *writeLadder) replay(o op, j int, checkpoint bool) error {
	d, err := updateDelta(l.dict, o.update)
	if err != nil {
		return err
	}
	root := l.tr.start(0, j, "op.update")
	defer l.tr.end(root)
	step := func(name string, fn func() error) time.Duration {
		if err != nil {
			return 0
		}
		id := l.tr.start(root, j, name)
		err = fn()
		l.tr.end(id)
		sp := l.tr.spans[id-1]
		return sp.End.Sub(sp.Start)
	}

	step("delta.Validate", func() error { return d.Validate(l.nwRaw) })
	var payload bytes.Buffer
	step("delta.Write", func() error { return delta.Write(&payload, d) })
	l.encodeBytes += payload.Len()
	step("journal.Append", func() error {
		_, err := l.jRaw.Append(networkName, uint64(j+1), payload.Bytes())
		return err
	})
	var affected itemset.Itemset
	l.rawParts += step("delta.AffectedItems", func() error { affected = delta.AffectedItems(l.nwRaw, d); return nil })
	l.rawParts += step("delta.Apply", func() error { return delta.Apply(l.nwRaw, d) })
	l.rawParts += step("tctree.RebuildSubtrees", func() error { tctree.RebuildSubtrees(l.nwRaw, affected); return nil })
	l.applyT += step("engine.ApplyDeltaInMemory", func() error {
		_, err := l.eng.ApplyDeltaInMemory(l.nwEng, d)
		return err
	})
	step("replication.Primary.Apply", func() error {
		_, err := l.primary.Apply(networkName, d)
		return err
	})
	if checkpoint {
		step("dbnet.WriteFileAtomic", func() error { return dbnet.WriteFileAtomic(l.rawPath, l.nwRaw, l.dict) })
		step("engine.Checkpoint", func() error {
			_, err := l.eng.Checkpoint(uint64(j+1), nil)
			return err
		})
		step("replication.Primary.Checkpoint", l.primary.Checkpoint)
	}
	if err == nil {
		l.updates++
	}
	return err
}
