package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"themecomm"
	"themecomm/internal/federation"
	"themecomm/internal/server"
)

// smallSite builds a workload's dataset at a fraction of its scale.
func smallSite(t *testing.T, name string, scale float64) (spec, *site, *keyPool) {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	st, err := buildSite(t.TempDir(), s, scale)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := newKeyPool(st.tree, st.nw, st.dict)
	if err != nil {
		t.Fatal(err)
	}
	return s, st, kp
}

func TestSequenceRepeatsPerSeedAndDiffersAcrossSeeds(t *testing.T) {
	for _, name := range workloadNames() {
		s, _, kp := smallSite(t, name, 0.2)
		_, _, again := smallSite(t, name, 0.2) // a second, independent build
		a, b := kp.sequenceHash(s, 7), again.sequenceHash(s, 7)
		if a != b {
			t.Errorf("%s: seed 7 hashed %s then %s", name, a, b)
		}
		if c := kp.sequenceHash(s, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 share the hash %s", name, a)
		}
		for i := 0; i < 200; i++ {
			if x, y := kp.readOp(s, 7, i), again.readOp(s, 7, i); x.key() != y.key() {
				t.Fatalf("%s: read %d differs between builds: %s vs %s", name, i, x.key(), y.key())
			}
		}
	}
}

func TestScanBlocksHoldEveryCombinationOnce(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for block := 0; block < 3; block++ {
			shapes := make(map[opKind]int)
			perAlpha := make(map[int]int)
			for pos := 0; pos < scanBlockLen; pos++ {
				i := block*scanBlockLen + pos
				o := scanOp(seed, i)
				shapes[o.kind]++
				perAlpha[int(o.alpha*2)]++ // the 1e-7·i offset vanishes in the truncation
			}
			if shapes[kindQBA] != 15 || shapes[kindTopK] != 5 || shapes[kindStream] != 5 {
				t.Errorf("seed %d block %d: shapes %v", seed, block, shapes)
			}
			for _, a := range scanAlphas {
				if perAlpha[int(a*2)] != 5 {
					t.Errorf("seed %d block %d: α=%g appears %d times, want 5", seed, block, a, perAlpha[int(a*2)])
				}
			}
		}
	}
}

func TestUpdateSequenceCoversThePoolEachPass(t *testing.T) {
	_, _, kp := smallSite(t, "mixed-rw", 0.2)
	n := len(kp.updateVertices)
	for _, seed := range []int64{3, 4} {
		seen := make(map[int]bool)
		for j := 0; j < n; j++ {
			u := kp.updateOp(seed, j, 0).update
			if len(u.AddTransactions) != 1 || len(u.AddTransactions[0].Items) != updateItems {
				t.Fatalf("update %d: %+v", j, u)
			}
			seen[u.AddTransactions[0].Vertex] = true
		}
		if len(seen) != n {
			t.Errorf("seed %d: one pass touched %d of %d pool vertices", seed, len(seen), n)
		}
	}
	a, _ := json.Marshal(kp.updateOp(3, 0, 0).update)
	b, _ := json.Marshal(kp.updateOp(3, n, 0).update)
	if bytes.Equal(a, b) {
		t.Errorf("the second pass repeats the first pass's transaction %s", a)
	}
}

// The answer checks must fail a run whose answer differs from the oracle: a
// served answer passes, the same answer with one edge count changed does not.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	s, st, kp := smallSite(t, "qbp-hot", 0.3)
	fed, err := themecomm.OpenFederation(st.networksDir, federation.Options{CacheSize: s.cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(nil, server.Options{Federation: fed})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(o op) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, o.path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", o.path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	gen := func(i int) op { return kp.hot[i] }
	// Find a hot key with a non-empty answer.
	index := -1
	for i := range kp.hot {
		var resp server.QueryResponse
		if err := json.Unmarshal(serve(kp.hot[i]), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Communities) > 0 {
			index = i
			break
		}
	}
	if index < 0 {
		t.Fatal("no hot key has a non-empty answer")
	}
	good := sample{index: index, kind: kindQBP, status: http.StatusOK, body: serve(gen(index))}

	var resp server.QueryResponse
	if err := json.Unmarshal(good.body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Communities[0].Edges++
	corrupted, _ := json.Marshal(resp)
	bad := sample{index: index, kind: kindQBP, status: http.StatusOK, body: corrupted}

	r := &runner{cfg: config{spec: s}, out: os.Stderr, st: st, kp: kp, chk: &checker{st: st}, res: newResult(config{spec: s})}
	r.chk.checkSamples([]sample{good}, gen, st.tree)
	if err := r.finish(testContext(t)); err != nil || !r.res.Correct {
		t.Fatalf("a served answer failed the checks: %v", r.chk.failures)
	}
	r.chk.checkSamples([]sample{bad}, gen, st.tree)
	if err := r.finish(testContext(t)); err != nil || r.res.Correct || r.res.Failed != 1 {
		t.Errorf("a corrupted answer passed: correct=%v failed=%d", r.res.Correct, r.res.Failed)
	}
	// The paper's definition agrees with the index on the same key.
	if got, want := r.chk.paper(gen(index).pattern, gen(index).alpha), r.chk.oracle(st.tree, gen(index)); !slices.Equal(got, want) {
		t.Errorf("paper vs tree on %s: %s", gen(index).path, firstDiff(got, want))
	}
	if _, err := os.Stat(filepath.Join(st.indexDir, "index.manifest")); err != nil {
		t.Errorf("the site has no index manifest: %v", err)
	}
}
