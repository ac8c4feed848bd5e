package tctree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"themecomm/internal/gen"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// legacyAlphas is the α grid the component-count tests query at: 0, the
// qba-scan grid, and values between.
var legacyAlphas = []float64{0, 0.1, 0.2, 0.5, 1, 1.5, 2, 3}

// generatedShards builds the dataset analogue at scale 0.1 and encodes every
// shard: the roots, and each shard's payload opened under its entry.
func generatedShards(t *testing.T, name string) (gen.Dataset, []*Node, []*EncodedShard) {
	t.Helper()
	ds, err := gen.ByName(name, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	if name == "SYN" {
		maxLen = 2 // as in TestTreeMatchesTCFIOnGeneratedDatasets
	}
	var encs []*EncodedShard
	roots := Build(ds.Network, BuildOptions{MaxDepth: maxLen}).Root().Children
	for _, root := range roots {
		enc, err := encodeShardBinary(root)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	return ds, roots, encs
}

// legacyCopy returns a copy of a TCBIN payload with every node's component
// count zeroed and the footer resealed — the bytes an index written before
// the count was recorded holds — and the entry it opens under.
func legacyCopy(enc *EncodedShard) ([]byte, ShardEntry) {
	le := binary.LittleEndian
	data := slices.Clone(enc.Data)
	nodeOff, nodes := le.Uint64(data[48:]), uint64(le.Uint32(data[16:]))
	for i := uint64(0); i < nodes; i++ {
		le.PutUint32(data[nodeOff+i*binNodeSize+binNodeComponents:], 0)
	}
	reseal(data)
	return data, footerEntry(data, enc.Entry)
}

// TestStoredComponentsCountTheWholeTruss holds the count every node record
// carries to its definition: on every dataset analogue, every node of every
// shard records the number of communities the read kernel splits its levels
// into with all of them live — C*_p(0)'s connected components. Most nodes are
// one community, so most retrievals at a low α skip the split.
func TestStoredComponentsCountTheWholeTruss(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		_, _, encs := generatedShards(t, name)
		nodes, connected := 0, 0
		for _, enc := range encs {
			sh, err := enc.Open()
			if err != nil {
				t.Fatal(err)
			}
			sc := new(readScratch)
			for i := uint32(0); i < sh.nodeCount; i++ {
				run, live, whole := sh.liveLevels(sc, i, math.Inf(-1))
				var split []truss.Community
				if sh.wide {
					split = truss.Split[uint32](&sc.split, nil, run, live, nil)
				} else {
					split = truss.Split[uint16](&sc.split, nil, run, live, nil)
				}
				stored := sh.nodeU32(i, binNodeComponents)
				if int(stored) != len(split) {
					t.Fatalf("%s shard %d node %d: records %d components, its levels split into %d", name, sh.RootItem(), i, stored, len(split))
				}
				if whole != (stored == 1) {
					t.Fatalf("%s shard %d node %d: every level is live below 0, yet whole is %v for %d components", name, sh.RootItem(), i, whole, stored)
				}
				nodes++
				if stored == 1 {
					connected++
				}
			}
		}
		t.Logf("%s: %d of %d nodes are one community at α = 0", name, connected, nodes)
		if 2*connected < nodes {
			t.Fatalf("%s: only %d of %d nodes are one community: the whole-truss path is barely exercised", name, connected, nodes)
		}
	}
}

// TestLegacyShardsAnswerTheSame opens every shard twice — as encoded, and as
// an index written before the component count was recorded holds it, every
// count 0 — and requires the same answers from both, record for record and
// counters included: unranked and ranked sub-pattern queries and containment
// queries, over the α grid. The count only lets the kernel skip the split
// whose answer it already knows.
func TestLegacyShardsAnswerTheSame(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		ds, roots, encs := generatedShards(t, name)
		universe := ds.Network.Items()
		rng := rand.New(rand.NewSource(11))
		answered := 0
		for s, enc := range encs {
			sh, err := enc.Open()
			if err != nil {
				t.Fatal(err)
			}
			data, entry := legacyCopy(enc)
			legacy, err := DecodeBinShard(data, entry)
			if err != nil {
				t.Fatalf("%s shard %d with its counts zeroed: %v", name, entry.Item, err)
			}
			root := roots[s]
			var sub itemset.Itemset
			for _, it := range universe {
				if it == root.Item || rng.Intn(3) == 0 {
					sub = sub.Add(it)
				}
			}
			contains := []itemset.Itemset{itemset.New(root.Item)}
			root.Walk(func(n *Node) {
				if n.Pattern.Len() == 2 && len(contains) == 1 {
					contains = append(contains, n.Pattern)
				}
			})
			for _, alpha := range legacyAlphas {
				label := func(query string) string {
					return fmt.Sprintf("%s shard %d α=%v %s", name, root.Item, alpha, query)
				}
				for _, q := range []itemset.Itemset{nil, universe, sub} {
					got := sh.QuerySub(q, alpha, nil)
					assertSameShardAnswer(t, label(fmt.Sprintf("QuerySub(%v)", q)), got, legacy.QuerySub(q, alpha, nil))
					answered += len(got.Communities)
					for _, k := range []int{1, 10} {
						assertSameShardAnswer(t, label(fmt.Sprintf("QuerySub(%v) top %d", q, k)),
							sh.QuerySub(q, alpha, truss.NewFloor(k)), legacy.QuerySub(q, alpha, truss.NewFloor(k)))
					}
				}
				for _, q := range contains {
					assertSameShardAnswer(t, label(fmt.Sprintf("QueryContaining(%v)", q)), sh.QueryContaining(q, alpha), legacy.QueryContaining(q, alpha))
				}
			}
		}
		if answered < 100 {
			t.Fatalf("%s: only %d communities compared", name, answered)
		}
	}
}

// componentWords returns the component count of every node of a payload, in
// node order.
func componentWords(data []byte) []uint32 {
	le := binary.LittleEndian
	nodeOff, nodes := le.Uint64(data[48:]), uint64(le.Uint32(data[16:]))
	words := make([]uint32, nodes)
	for i := range words {
		words[i] = le.Uint32(data[nodeOff+uint64(i)*binNodeSize+binNodeComponents:])
	}
	return words
}

// TestScopedRebuildOfALegacyShard updates an index written before the
// component count was recorded — every count 0 — alongside the same index
// with its counts, over rounds of random scoped changes. Both must rebuild
// the same shards but for the counts: every node the update mines gets its
// count on both sides — from the previous count where there is one, from the
// carried edges where there is none — and every node it carries over keeps
// the word it had, 0 on the legacy side until a later update mines it.
func TestScopedRebuildOfALegacyShard(t *testing.T) {
	for _, name := range []string{"BK", "AMINER"} {
		t.Run(name, func(t *testing.T) {
			ds, err := gen.ByName(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			nw := ds.Network
			counted := make(map[itemset.Item]*BinShard)
			legacy := make(map[itemset.Item]*BinShard)
			for _, root := range Build(nw, BuildOptions{}).Root().Children {
				enc, err := encodeShardBinary(root)
				if err != nil {
					t.Fatal(err)
				}
				data, entry := legacyCopy(enc)
				if counted[root.Item], err = enc.Open(); err != nil {
					t.Fatal(err)
				}
				if legacy[root.Item], err = DecodeBinShard(data, entry); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(name)) * 104729))
			mined := 0
			for round := 0; round < 6; round++ {
				scope := scopedMutation(t, rng, nw)
				affected := scopeItems(scope)
				want, _, err := RebuildScoped(nw, affected, scope, func(it itemset.Item) *BinShard { return counted[it] })
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := RebuildScoped(nw, affected, scope, func(it itemset.Item) *BinShard { return legacy[it] })
				if err != nil {
					t.Fatal(err)
				}
				recorded := 0
				for _, it := range affected {
					g, w := got[it], want[it]
					if (g == nil) != (w == nil) {
						t.Fatalf("round %d: shard %d rebuilt from the legacy shard is %v, from the counted one %v", round, it, g != nil, w != nil)
					}
					if g == nil {
						delete(counted, it)
						delete(legacy, it)
						continue
					}
					gz, _ := legacyCopy(g)
					wz, _ := legacyCopy(w)
					if !slices.Equal(gz, wz) {
						t.Fatalf("round %d: shard %d: the two rebuilds differ beyond their counts", round, it)
					}
					gw, ww := componentWords(g.Data), componentWords(w.Data)
					for i, c := range gw {
						if ww[i] == 0 {
							t.Fatalf("round %d: shard %d node %d: the counted rebuild records no count", round, it, i)
						}
						if c != 0 && c != ww[i] {
							t.Fatalf("round %d: shard %d node %d: the legacy rebuild records %d components, the counted one %d", round, it, i, c, ww[i])
						}
						if c != 0 {
							recorded++
						}
					}
					if counted[it], err = w.Open(); err != nil {
						t.Fatal(err)
					}
					if legacy[it], err = g.Open(); err != nil {
						t.Fatal(err)
					}
				}
				// Only the mined nodes of the first round are counted on the
				// legacy side; later rounds also carry over nodes mined before.
				if round == 0 && recorded != stats.Recomputed || recorded < stats.Recomputed {
					t.Fatalf("round %d: %d nodes of the legacy rebuild record a count, it mined %d", round, recorded, stats.Recomputed)
				}
				mined += stats.Recomputed
			}
			if mined == 0 {
				t.Fatal("no round mined a node")
			}
		})
	}
}
