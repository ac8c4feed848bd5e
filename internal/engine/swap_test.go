package engine

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// TestShardSwapTransitions drives the one shard-swap routine through every
// transition the engine performs — replace, add, remove, over heap-resident
// and file-backed shards on either side — each with a load of the outgoing
// file-backed shard in flight across the swap. The struct that left the table
// must end up poisoned and empty: the in-flight load may neither install its
// view nor charge the residency budget, and a later acquire may not load
// anew; a heap shard is charged its bytes exactly while it is in the table.
// Run it with -race.
func TestShardSwapTransitions(t *testing.T) {
	const (
		absent   = "absent"
		file     = "file-backed"
		resident = "resident"
	)
	cases := []struct {
		name     string
		old, new string
		outcome  string // the report field the item must land in; "" for none
	}{
		{"replace/file-backed-by-resident", file, resident, "replaced"},  // ApplyDeltaInMemory
		{"replace/file-backed-by-file-backed", file, file, "replaced"},   // no route; the routine's contract
		{"replace/resident-by-file-backed", resident, file, "replaced"},  // Checkpoint
		{"replace/resident-by-resident", resident, resident, "replaced"}, // ApplyDeltaInMemory over a heap shard
		{"add/resident", absent, resident, "added"},
		{"add/file-backed", absent, file, "added"},
		{"remove/file-backed", file, absent, "removed"},
		{"remove/resident", resident, absent, "removed"},
		{"remove/absent", absent, absent, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := buildTestTree(t, 11)
			idx, _ := writeShardedTestTree(t, tree)
			eng, err := NewLazy(idx, Options{})
			if err != nil {
				t.Fatalf("NewLazy: %v", err)
			}
			encoded := testIndex(t, 11).Shards
			sub, bystander := tree.Root().Children[0], tree.Root().Children[1].Item
			item, q := sub.Item, itemset.New(sub.Item)
			source := func(kind string) func(itemset.Item) *shard {
				switch kind {
				case file:
					return eng.committedShard
				case resident:
					mk, err := heapShards(map[itemset.Item]*tctree.EncodedShard{item: encoded[0]})
					if err != nil {
						t.Fatalf("heapShards: %v", err)
					}
					return mk
				}
				return func(itemset.Item) *shard { return nil }
			}
			swap := func(kind string) *tctree.CommitReport {
				eng.updateMu.Lock()
				defer eng.updateMu.Unlock()
				return eng.replaceShardsLocked(q, source(kind))
			}

			// A resident file-backed bystander: the swap must carry its
			// struct over untouched, residency charge included.
			mustQuery(t, eng, itemset.New(bystander), 0)
			bystanderShard, _ := eng.table.Load().lookup(bystander)
			charged, chargedBytes := eng.res.Resident(), eng.res.ResidentBytes()
			if charged != 1 || chargedBytes <= 0 {
				t.Fatalf("bystander charges %d shards / %d bytes, want 1 shard and some bytes", charged, chargedBytes)
			}

			// Put the table into the case's starting state.
			if tc.old != file {
				swap(tc.old)
			}
			old, exists := eng.table.Load().lookup(item)
			if exists != (tc.old != absent) {
				t.Fatalf("setup: shard in table = %v for starting state %q", exists, tc.old)
			}

			// Park a load of the outgoing file-backed struct inside its
			// sync.Once, mid-read.
			entered, release, acquired := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			if tc.old == file {
				load := old.load
				old.load = func() (*tctree.BinShard, error) {
					close(entered)
					<-release
					return load()
				}
				go func() {
					_, _, err := eng.acquire(old)
					acquired <- err
				}()
				<-entered
			}

			report := swap(tc.new)
			var want tctree.CommitReport
			switch tc.outcome {
			case "replaced":
				want.Replaced = q
			case "added":
				want.Added = q
			case "removed":
				want.Removed = q
			}
			if !reflect.DeepEqual(*report, want) {
				t.Fatalf("report %+v, want %+v", *report, want)
			}
			if tc.old == file {
				close(release)
				if err := <-acquired; !errors.Is(err, errShardRemoved) {
					t.Fatalf("load in flight across the swap returned %v, want errShardRemoved", err)
				}
			}
			if exists {
				if _, _, err := eng.acquire(old); (tc.old == file) != errors.Is(err, errShardRemoved) {
					// A retired heap shard keeps answering (an open stream
					// may still hold it); a retired file shard never loads.
					t.Fatalf("acquire on the retired %s struct returned %v", tc.old, err)
				}
				if tc.old == file && old.resident() {
					t.Fatalf("the retired struct re-installed a view")
				}
			}
			// A heap shard in the table is pinned, not counted, and charged at
			// the size of its bytes; one that left the table charges nothing.
			if tc.new == resident {
				chargedBytes += int64(len(encoded[0].Data))
			}
			if got, gotBytes := eng.res.Resident(), eng.res.ResidentBytes(); got != charged || gotBytes != chargedBytes {
				t.Fatalf("residency charge %d shards / %d bytes after the swap, want %d / %d",
					got, gotBytes, charged, chargedBytes)
			}

			tbl := eng.table.Load()
			if s, _ := tbl.lookup(bystander); s != bystanderShard || !s.resident() {
				t.Fatalf("the bystander's struct was not carried over resident")
			}
			s, ok := tbl.lookup(item)
			if ok != (tc.new != absent) {
				t.Fatalf("shard in table = %v after swapping in %q", ok, tc.new)
			}
			if !sort.SliceIsSorted(tbl.shards, func(i, j int) bool { return tbl.shards[i].item < tbl.shards[j].item }) {
				t.Fatalf("table not in ascending item order")
			}
			if tc.new == absent {
				if got := mustQuery(t, eng, q, 0); got.RetrievedNodes != 0 {
					t.Fatalf("removed shard still answers %d trusses", got.RetrievedNodes)
				}
				return
			}
			if s == old || (s.load == nil) != (tc.new == resident) || s.resident() != (tc.new == resident) {
				t.Fatalf("installed struct: same=%v load==nil=%v resident=%v, want a fresh %s one",
					s == old, s.load == nil, s.resident(), tc.new)
			}
			assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
		})
	}
}
