package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"testing"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// TestPagedTopKMatchesReference: a top-k paged over HTTP — ?k=&limit= and
// then the cursor alone — delivers the reference ranking of the full answer
// (the engine's QueryContext, sorted by engine.LessRanked and truncated to
// k), record for record, on the four generated datasets at small scale and
// the ranked oracle's α and k grid.
func TestPagedTopKMatchesReference(t *testing.T) {
	for _, name := range []string{"AMINER", "BK", "GW", "SYN"} {
		t.Run(name, func(t *testing.T) {
			ds, err := gen.ByName(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			s, n := testNetwork{
				Built:          builtIndex(t, ds.Network, tctree.BuildOptions{}),
				NetworkOptions: federation.NetworkOptions{Dictionary: ds.Dictionary},
			}.serve(t)
			rn := referenceNames{dict: ds.Dictionary}
			for _, alpha := range []float64{0, 0.1, 0.5, 1, 2, 3} {
				full, err := n.Engine().QueryContext(context.Background(), nil, alpha)
				if err != nil {
					t.Fatalf("QueryContext: %v", err)
				}
				ranked := slices.Clone(full.Communities)
				slices.SortFunc(ranked, func(a, b truss.Community) int {
					switch {
					case engine.LessRanked(&a, &b):
						return -1
					case engine.LessRanked(&b, &a):
						return 1
					}
					return 0
				})
				for _, k := range []int{1, 3, 10, 100, len(ranked) + 1} {
					want := ranked[:min(k, len(ranked))]
					got := pageTopK(t, s, alpha, k, k/3+1)
					if len(got) != len(want) {
						t.Fatalf("α=%g k=%d: pages delivered %d communities, the reference ranks %d", alpha, k, len(got), len(want))
					}
					for i := range want {
						if w := rn.community(&want[i], true); !jsonEqual(t, got[i], w) {
							t.Fatalf("α=%g k=%d: rank %d is %+v, the reference ranks %+v", alpha, k, i, got[i], w)
						}
					}
				}
			}
		})
	}
}

// pageTopK walks a top-k answer page by page and returns the concatenation.
func pageTopK(t *testing.T, s *Server, alpha float64, k, limit int) []CommunityResponse {
	t.Helper()
	var out []CommunityResponse
	url := fmt.Sprintf("/api/v1/query?alpha=%s&k=%d&limit=%d", strconv.FormatFloat(alpha, 'g', -1, 64), k, limit)
	for hop := 0; hop <= k/limit+1; hop++ {
		rec := get(t, s, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body.String())
		}
		var page QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		out = append(out, page.Communities...)
		if page.NextCursor == "" {
			return out
		}
		url = fmt.Sprintf("/api/v1/query?limit=%d&cursor=%s", limit, page.NextCursor)
	}
	t.Fatalf("α=%g k=%d: pagination did not terminate", alpha, k)
	return nil
}
