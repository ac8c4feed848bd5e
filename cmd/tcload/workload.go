package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// opKind names the request shapes the workloads mix.
type opKind uint8

const (
	kindQBP    opKind = iota // query by pattern
	kindQBA                  // query by alpha (every item)
	kindTopK                 // materialized top-k
	kindStream               // streamed top-k (NDJSON)
	kindUpdate               // POST update
	numKinds
)

var kindNames = [numKinds]string{"qbp", "qba", "topk", "stream", "update"}

// op is one generated operation. Reads carry the request path; updates carry
// the JSON request. pattern/alpha/k restate the request for the answer checks.
type op struct {
	kind    opKind
	pattern itemset.Itemset // nil = every item
	names   string          // the pattern as comma-separated item names
	alpha   float64
	k       int
	path    string
	update  *server.UpdateRequest
}

// key renders the operation canonically, for the sequence hash.
func (o op) key() string {
	if o.kind == kindUpdate {
		b, _ := json.Marshal(o.update) // plain struct of ints and strings: cannot fail
		return "POST " + string(b)
	}
	return "GET " + o.path
}

// spec is one workload: which dataset it serves, with which server flags, and
// how its load is shaped. The tables in README.md say why each exists.
type spec struct {
	name    string
	dataset string // gen.ByName name
	// datasetScale is the generator scale at -scale 1.
	datasetScale float64
	// cacheSize and maxResident are tcserver's -cache and -maxresident
	// (1024 and 0 are its defaults); the ladder builds its in-process
	// engines with the same values.
	cacheSize   int
	maxResident int
	journal     bool // -journal <dir> -checkpoint checkpointEvery
	// readers are closed-loop read connections; readRate > 0 makes the
	// single reader open-loop at that many requests per second instead.
	readers  int
	readRate float64
	writer   bool // one closed-loop update connection beside the readers
	// requestBound says that the window's reads are bound by the request
	// path — wake-ups, loopback, the encode of a small answer — which is what
	// the reference clock reads (refserver.go), so their rates, latencies
	// and CPU are reported in reference time. A compute-bound window
	// (qba-scan: the host's weather slows it by far less than it slows the
	// clock) and a scheduled one (mixed-rw: the schedule sets the rate, the
	// Go scheduler's time slice behind a rebuild the latency) keep the wall
	// clock; correcting them only added the clock's own noise. Set-up and
	// update metrics are in reference time on every workload.
	requestBound bool
	// slice is how long the workload runs between two readings of the
	// reference clock.
	slice time.Duration
	// sliceOps, when positive, makes a slice that many reads instead: on
	// qba-scan two whole blocks, so every slice holds the same work.
	sliceOps int
	// warmOps is the warm-up length; 0 means one pass over the hot keys.
	warmOps int
	// warmUpdates are updates posted during warm-up (mixed-rw: the first
	// rebuilds and a checkpoint happen before the window).
	warmUpdates int
	// tailUpdates are updates posted after the read window on a read-only
	// workload, so the update metrics exist on every workload.
	tailUpdates int
	// ladderEvery picks the traced subsample: every n-th read.
	ladderEvery int
	// sampleEvery picks the reads whose timed answer is kept and compared in
	// full with the oracle (5 %).
	sampleEvery int
}

const checkpointEvery = 2 * time.Second

// Slice lengths: long against a reading of the reference clock, short
// against the minutes a host regime lasts; a mixed-rw slice holds about six
// updates.
const (
	readSlice  = 1500 * time.Millisecond
	writeSlice = 2500 * time.Millisecond
)

// serverFlags are the tcserver flags of the workload, beyond the data paths.
func (s spec) serverFlags() []string {
	flags := []string{"-cache", strconv.Itoa(s.cacheSize), "-maxresident", strconv.Itoa(s.maxResident)}
	if s.journal {
		flags = append(flags, "-checkpoint", checkpointEvery.String())
	}
	return flags
}

var specs = []spec{
	{
		name: "qbp-hot", dataset: "AMINER", datasetScale: 0.5, cacheSize: 1024, requestBound: true,
		readers: 2, slice: readSlice, tailUpdates: 18, ladderEvery: 20, sampleEvery: 20,
	},
	{
		name: "qba-scan", dataset: "AMINER", datasetScale: 0.5, cacheSize: 1024,
		readers: 2, slice: readSlice, sliceOps: 2 * scanBlockLen, warmOps: 25, tailUpdates: 18, ladderEvery: 5, sampleEvery: 20,
	},
	{
		name: "lazy-churn", dataset: "AMINER", datasetScale: 0.5, maxResident: 32, requestBound: true,
		readers: 2, slice: readSlice, warmOps: 500, tailUpdates: 18, ladderEvery: 10, sampleEvery: 20,
	},
	{
		name: "mixed-rw", dataset: "BK", datasetScale: 1.0, cacheSize: 1024, journal: true,
		readers: 1, readRate: 40, writer: true, slice: writeSlice, warmUpdates: 3,
		ladderEvery: 4, sampleEvery: 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Fixed workload constants (the seed never changes them).
const (
	hotKeys      = 400
	hotPatterns  = 100
	zipfS        = 1.1
	poolPerLen   = 2000
	maxPatLen    = 4
	topK         = 10
	updatePoolN  = 48
	updateItems  = 3
	hashedOps    = 4096
	poolShuffle  = 20190801 // fixed: the key pool is a property of the dataset
	scanBlockLen = 25
)

var (
	hotAlphas  = [...]float64{0, 0.1, 0.2, 0.5}
	scanAlphas = [...]float64{0.5, 1, 1.5, 2, 3}
)

// poolPattern is one indexed pattern with its rendered query parameter.
type poolPattern struct {
	items itemset.Itemset
	names string // comma-separated item names
}

// keyPool is everything the generators draw from. It depends on the dataset
// only: the seed drives which entries are drawn in which order, never which
// entries exist, so two seeds load the server with the same distribution.
type keyPool struct {
	patterns []poolPattern // up to poolPerLen of each length 1..maxPatLen
	hot      []op          // hotKeys (pattern, α) keys in Zipf rank order
	zipfCDF  []float64
	// updateVertices are the vertices the writer posts transactions to, each
	// with the item names it may draw from (the vertex's own items).
	updateVertices []updateVertex
}

type updateVertex struct {
	vertex graph.VertexID
	names  []string
}

func newKeyPool(tree *tctree.Tree, nw *dbnet.Network, dict *itemset.Dictionary) (*keyPool, error) {
	rng := rand.New(rand.NewSource(poolShuffle))
	byLen := make([][]poolPattern, maxPatLen+1)
	for _, p := range tree.Patterns() {
		if n := p.Len(); n >= 1 && n <= maxPatLen {
			byLen[n] = append(byLen[n], poolPattern{items: p, names: strings.Join(dict.Names(p), ",")})
		}
	}
	kp := &keyPool{}
	var hotPats []poolPattern
	for n := 1; n <= maxPatLen; n++ {
		ps := byLen[n]
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		if len(ps) > poolPerLen {
			ps = ps[:poolPerLen]
		}
		kp.patterns = append(kp.patterns, ps...)
		if take := hotPatterns / maxPatLen; len(ps) > take {
			hotPats = append(hotPats, ps[:take]...)
		} else {
			hotPats = append(hotPats, ps...)
		}
	}
	if len(hotPats) == 0 {
		return nil, fmt.Errorf("the index holds no pattern of length 1..%d", maxPatLen)
	}
	for r := 0; r < hotKeys; r++ {
		p := hotPats[r%len(hotPats)]
		kp.hot = append(kp.hot, patternOp(p, hotAlphas[(r/len(hotPats))%len(hotAlphas)]))
	}
	rng.Shuffle(len(kp.hot), func(i, j int) { kp.hot[i], kp.hot[j] = kp.hot[j], kp.hot[i] })
	sum := 0.0
	for r := range kp.hot {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		kp.zipfCDF = append(kp.zipfCDF, sum)
	}
	for i := range kp.zipfCDF {
		kp.zipfCDF[i] /= sum
	}

	// Update targets: an update rebuilds the shard of every item its vertex
	// carries, so a vertex's cost is roughly the node count of those shards.
	// Taking the updatePoolN vertices around the median cost keeps the
	// updates alike, and a median over a dozen of them steady.
	shardNodes := make(map[itemset.Item]int)
	for _, st := range tree.ShardStats() {
		shardNodes[st.Item] = st.Nodes
	}
	type candidate struct {
		uv     updateVertex
		weight int
	}
	var cands []candidate
	for v := 0; v < nw.NumVertices(); v++ {
		items := nw.Database(graph.VertexID(v)).Items()
		if items.Len() < updateItems {
			continue
		}
		c := candidate{uv: updateVertex{vertex: graph.VertexID(v), names: dict.Names(items)}}
		for _, it := range items {
			c.weight += shardNodes[it]
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight < cands[j].weight })
	if extra := len(cands) - updatePoolN; extra > 0 {
		cands = cands[extra/2 : extra/2+updatePoolN]
	}
	for _, c := range cands {
		kp.updateVertices = append(kp.updateVertices, c.uv)
	}
	// The sort grouped the pool by cost; shuffle it so that a prefix (the
	// short update tail) is a fair sample of the band.
	rng.Shuffle(len(kp.updateVertices), func(i, j int) {
		kp.updateVertices[i], kp.updateVertices[j] = kp.updateVertices[j], kp.updateVertices[i]
	})
	if len(kp.updateVertices) == 0 {
		return nil, fmt.Errorf("no vertex carries %d items to build updates from", updateItems)
	}
	return kp, nil
}

func patternOp(p poolPattern, alpha float64) op {
	return op{kind: kindQBP, pattern: p.items, names: p.names, alpha: alpha,
		path: "/api/v1/query?alpha=" + formatAlpha(alpha) + "&pattern=" + url.QueryEscape(p.names)}
}

func formatAlpha(a float64) string { return strconv.FormatFloat(a, 'g', -1, 64) }

// splitmix64 is the generator behind every draw: operation i of a seed is a
// pure function of (seed, i), so connections can pull operations in any
// interleaving and the sequence stays the same.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, i int, salt uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)+salt*0x632be59bd9b4e019) ^ uint64(i))
}

func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// permutation is a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(seed int64, block int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(draw(seed, block*n+i, 7) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// hotOp draws one of the hot keys with Zipf(zipfS) popularity.
func (kp *keyPool) hotOp(seed int64, i int) op {
	u := unit(draw(seed, i, 1))
	lo, hi := 0, len(kp.zipfCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if kp.zipfCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return kp.hot[lo]
}

// scanOp is operation i of qba-scan. Every block of scanBlockLen operations
// holds each (shape, α) combination exactly once — three query-by-alpha, one
// materialized and one streamed top-k per α of the grid — and the seed only
// orders the block, so every seed offers the server the same work. The
// 1e-7·i offset gives every request its own cache key.
func scanOp(seed int64, i int) op {
	block := i / scanBlockLen
	combo := permutation(seed, block, scanBlockLen)[i%scanBlockLen]
	alpha := scanAlphas[combo%len(scanAlphas)] + 1e-7*float64(i)
	path := "/api/v1/query?alpha=" + formatAlpha(alpha)
	switch combo / len(scanAlphas) {
	case 3:
		return op{kind: kindTopK, alpha: alpha, k: topK, path: path + "&k=" + strconv.Itoa(topK)}
	case 4:
		return op{kind: kindStream, alpha: alpha, k: topK, path: path + "&k=" + strconv.Itoa(topK) + "&stream=1"}
	}
	return op{kind: kindQBA, alpha: alpha, path: path}
}

// churnOp draws a pattern uniformly from the whole pool with its own α in
// [0, 0.5).
func (kp *keyPool) churnOp(seed int64, i int) op {
	p := kp.patterns[draw(seed, i, 2)%uint64(len(kp.patterns))]
	return patternOp(p, 0.5*unit(draw(seed, i, 3)))
}

// updateOp is the j-th update of a seed. The pool of target vertices and the
// items of each transaction are fixed by the dataset; the seed orders the
// vertices within each pass over the pool, so every seed pays for the same
// set of rebuilds. limit bounds the pool (the short update tail of the read
// workloads uses its first few vertices).
func (kp *keyPool) updateOp(seed int64, j, limit int) op {
	n := len(kp.updateVertices)
	if limit > 0 && limit < n {
		n = limit
	}
	pass := j / n
	uv := kp.updateVertices[permutation(seed, pass, n)[j%n]]
	names := make([]string, updateItems)
	for t := range names {
		names[t] = uv.names[(pass*updateItems+t)%len(uv.names)]
	}
	return op{kind: kindUpdate, update: &server.UpdateRequest{
		AddTransactions: []server.UpdateTransaction{{Vertex: int(uv.vertex), Items: names}},
	}}
}

// readOp is read operation i of a workload.
func (kp *keyPool) readOp(s spec, seed int64, i int) op {
	switch s.name {
	case "qba-scan":
		return scanOp(seed, i)
	case "lazy-churn":
		return kp.churnOp(seed, i)
	}
	return kp.hotOp(seed, i)
}

// sequenceHash fingerprints the first hashedOps reads and updates of a seed,
// so two runs can show they were offered the same operations.
func (kp *keyPool) sequenceHash(s spec, seed int64) string {
	h := sha256.New()
	for i := 0; i < hashedOps; i++ {
		fmt.Fprintln(h, kp.readOp(s, seed, i).key())
	}
	for j := 0; j < hashedOps/16; j++ {
		fmt.Fprintln(h, kp.updateOp(seed, j, s.tailUpdates).key())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
