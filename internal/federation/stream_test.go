package federation

import (
	"context"
	"testing"

	"themecomm/internal/itemset"
)

// This file proves the federation's merged streams against the materializing
// cross-network calls: StreamTopKAll must reproduce TopKAll's merged order
// byte for byte, StreamQueryAll must reproduce QueryAll's per-network
// concatenation, and the short-circuit accounting of the member engines must
// survive the merge.

// drainMerged pulls the merged stream to exhaustion.
func drainMerged(t *testing.T, ms *MergedStream) []NetworkRanked {
	t.Helper()
	var out []NetworkRanked
	for {
		nr, err := ms.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if nr == nil {
			return out
		}
		out = append(out, *nr)
	}
}

// TestStreamTopKAllParity: across patterns, thresholds and ks, the merged
// ranked stream must equal the materializing TopKAll answer position by
// position — network, pattern, edge set and ranking annotations.
func TestStreamTopKAllParity(t *testing.T) {
	f, _ := newTestFederation(t, Options{})
	queries := []itemset.Itemset{nil, itemset.New(0), itemset.New(1, 2), itemset.New(0, 1, 2, 3, 4)}
	alphas := []float64{0, 0.15, 0.4}
	ks := []int{0, 1, 3, 10, 1000}
	cases := 0
	for _, q := range queries {
		for _, alpha := range alphas {
			for _, k := range ks {
				want, err := f.TopKAll(context.Background(), Constant(q), alpha, k)
				if err != nil {
					t.Fatalf("TopKAll: %v", err)
				}
				ms, err := f.StreamTopKAll(context.Background(), Constant(q), alpha, k)
				if err != nil {
					t.Fatalf("StreamTopKAll: %v", err)
				}
				got := drainMerged(t, ms)
				ms.Close()
				if len(got) != len(want) {
					t.Fatalf("q=%v α=%g k=%d: streamed %d, materialized %d", q, alpha, k, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Network != w.Network {
						t.Fatalf("rank %d: streamed network %q, materialized %q", i, g.Network, w.Network)
					}
					if !sameCommunity(g.Community, w.Community) {
						t.Fatalf("rank %d: streamed %+v, materialized %+v", i, g.Community, w.Community)
					}
				}
				cases++
			}
		}
	}
	if cases < 50 {
		t.Fatalf("only %d federated parity cases", cases)
	}
}

// TestStreamQueryAllParity: the plain merged stream must equal QueryAll's
// answer — networks in ascending name order, each network's communities in
// its own Query order.
func TestStreamQueryAllParity(t *testing.T) {
	f, _ := newTestFederation(t, Options{})
	for _, q := range []itemset.Itemset{nil, itemset.New(0), itemset.New(1, 3)} {
		for _, alpha := range []float64{0, 0.2} {
			results, err := f.QueryAll(context.Background(), Constant(q), alpha)
			if err != nil {
				t.Fatalf("QueryAll: %v", err)
			}
			var want []NetworkRanked
			for _, nr := range results {
				for _, c := range nr.Result.Communities {
					want = append(want, NetworkRanked{Network: nr.Network, Community: c})
				}
			}
			ms, err := f.StreamQueryAll(context.Background(), Constant(q), alpha)
			if err != nil {
				t.Fatalf("StreamQueryAll: %v", err)
			}
			got := drainMerged(t, ms)
			ms.Close()
			if len(got) != len(want) {
				t.Fatalf("q=%v α=%g: streamed %d communities, materialized %d", q, alpha, len(got), len(want))
			}
			for i := range got {
				if got[i].Network != want[i].Network {
					t.Fatalf("community %d: network %q, want %q", i, got[i].Network, want[i].Network)
				}
				if !sameCommunity(got[i].Community, want[i].Community) {
					t.Fatalf("community %d: differs from QueryAll order", i)
				}
			}
		}
	}
}

// TestStreamAllShortCircuitAccounting: a selective federated top-k stream
// must leave member shards unopened, and closing the merged stream must
// credit them to the federation's aggregated counters.
func TestStreamAllShortCircuitAccounting(t *testing.T) {
	f, _ := newTestFederation(t, Options{})
	ms, err := f.StreamTopKAll(context.Background(), Constant(nil), 0, 1)
	if err != nil {
		t.Fatalf("StreamTopKAll: %v", err)
	}
	got := drainMerged(t, ms)
	ms.Close()
	if len(got) != 1 {
		t.Fatalf("k=1 merged stream emitted %d communities", len(got))
	}
	fs := f.Stats()
	if fs.StreamAlls != 1 {
		t.Fatalf("StreamAlls = %d, want 1", fs.StreamAlls)
	}
	if fs.Streams != uint64(fs.Networks) {
		t.Fatalf("aggregated Streams = %d, want one per network (%d)", fs.Streams, fs.Networks)
	}
	if fs.ShardsShortCircuited == 0 {
		t.Fatalf("no member shard was short-circuited by the k=1 merge")
	}
	// The short-circuited shards were never loaded: the lazy members' load
	// counters must come in under their shard counts.
	var loads, shards uint64
	for _, ns := range fs.PerNetwork {
		loads += ns.LazyLoads
		shards += uint64(ns.Shards)
	}
	if loads >= shards {
		t.Fatalf("members loaded %d of %d shards; the merge saved nothing", loads, shards)
	}
}

// TestMergedStreamClosedNext: Next after Close fails rather than yielding
// stale members.
func TestMergedStreamClosedNext(t *testing.T) {
	f, _ := newTestFederation(t, Options{})
	ms, err := f.StreamQueryAll(context.Background(), Constant(nil), 0)
	if err != nil {
		t.Fatalf("StreamQueryAll: %v", err)
	}
	ms.Close()
	ms.Close() // idempotent
	if _, err := ms.Next(); err == nil {
		t.Fatalf("Next on a closed merged stream succeeded")
	}
}
