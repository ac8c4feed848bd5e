package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// FuzzAnswerEncoding holds the answer encoder to encoding/json over the
// reference renderer, byte for byte: a QueryResponse (ranked and not, with
// communities and without, bare and network-labelled), a batch body, and
// the header, community and trailer lines of an NDJSON stream. The fuzzer
// picks an item name and a vertex name — both also serve as the network
// label and the cursor — and the two floats every alpha and cohesion field
// is drawn from. Answers only ever carry finite floats, so infinities and
// NaN are skipped.
func FuzzAnswerEncoding(f *testing.F) {
	names := []string{
		"data mining", "<script>", "a>b", "R&D", "line\u2028sep", "para\u2029sep",
		"\xff\xfe invalid", "half \xe2\x80", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		`quote " and \ backslash`, "", "日本語",
	}
	floats := []float64{0, 0.5 + 1e-7, 1e-7, 1e-6, 1e-6 - 1e-22, 1e21, 1e21 - 1e5, 5e-324, 0.1, 2.25, 123456789.125}
	for i, name := range names {
		f.Add(name, names[(i+1)%len(names)], floats[i%len(floats)], floats[(i+3)%len(floats)])
	}
	f.Fuzz(func(t *testing.T, item, vertex string, alpha, cohesion float64) {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(cohesion) || math.IsInf(cohesion, 0) {
			t.Skip("answers carry finite floats only")
		}
		dict := itemset.NewDictionary()
		for _, name := range []string{item, vertex, "theme"} {
			dict.Intern(name)
		}
		vertexNames := []string{vertex, item, "Ada\u2028Lovelace"}
		unnamed := itemset.Item(dict.Len() + 2)
		cs := []truss.Community{
			{Pattern: itemset.New(0, unnamed), Vertices: []graph.VertexID{0, 1, 2, 7}, Edges: 4, Cohesion: cohesion},
			{Pattern: itemset.New(1, itemset.Item(dict.Len()-1)), Vertices: []graph.VertexID{1, 9}, Edges: 1, Cohesion: alpha},
			{Pattern: itemset.New(unnamed), Vertices: []graph.VertexID{}, Edges: 2}, // cohesion 0: omitted
		}
		ref := referenceNames{dict: dict, vertexNames: vertexNames}
		s, tn := &Server{}, &tenant{names: federation.NewQuotedNames(dict, vertexNames)}
		check := func(what string, got []byte, want any) {
			t.Helper()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			if !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("%s:\n got %q\nwant %q", what, got, buf.Bytes())
			}
		}

		for _, ranked := range []bool{false, true} {
			for _, comms := range [][]truss.Community{cs, nil} {
				h := &answerHead{alpha: alpha, pattern: itemset.New(0, 1, unnamed), contains: !ranked, topK: 3, retrieved: 5, visited: 9, micros: 42}
				rec := httptest.NewRecorder()
				s.writeAnswer(tn, rec, h, comms, ranked, item)
				check("QueryResponse", rec.Body.Bytes(), ref.query(h, comms, ranked, item))

				h.network = "net " + vertex // network names are never empty
				rec = httptest.NewRecorder()
				a := beginAnswer(rec, "application/json")
				a.query(h, comms, ranked, tn.names, "")
				a.end()
				check("NetworkQueryResponse", rec.Body.Bytes(),
					NetworkQueryResponse{Network: h.network, QueryResponse: ref.query(h, comms, ranked, "")})
			}
		}

		reqs := []engine.Request{{Pattern: itemset.New(1), Alpha: alpha}, {Alpha: cohesion}}
		answers := []*engine.Answer{
			{Communities: cs, RetrievedNodes: 3, VisitedNodes: 4, Duration: 5 * time.Microsecond},
			{VisitedNodes: 1},
		}
		rec := httptest.NewRecorder()
		s.writeBatchAnswer(tn, rec, reqs, answers)
		var batch BatchResponse
		for i, qr := range answers {
			h := &answerHead{alpha: reqs[i].Alpha, pattern: reqs[i].Pattern, retrieved: qr.RetrievedNodes,
				visited: qr.VisitedNodes, micros: qr.Duration.Microseconds()}
			batch.Results = append(batch.Results, ref.query(h, qr.Communities, false, ""))
		}
		check("BatchResponse", rec.Body.Bytes(), batch)

		header := StreamHeader{Type: "header", Network: vertex, Alpha: alpha, Pattern: []string{item, vertex}, TopK: 3, Epoch: 7}
		check("StreamHeader", append(appendStreamHeader(nil, &header), '\n'), header)
		for i := range cs {
			for _, network := range []string{"", vertex} {
				check("StreamCommunity", append(appendCommunityLine(nil, network, &cs[i], true, tn.names), '\n'),
					StreamCommunity{Type: "community", Network: network, CommunityResponse: ref.community(&cs[i], true)})
			}
		}
		trailer := StreamTrailer{Type: "trailer", Emitted: 3, VisitedNodes: 2, QueryMicros: 11, NextCursor: item}
		check("StreamTrailer", append(appendStreamTrailer(nil, &trailer), '\n'), trailer)
	})
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestAnswerEncodeAllocations pins that encoding an answer allocates a
// constant number of times, whatever its size: the same engine answer cut to
// 10 and repeated to 1,000 communities, over a network with author names and
// one that renders vertices as identifiers (as tcserver -networks does),
// costs the same few allocations — the response header, not the communities,
// names or buffers.
func TestAnswerEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	d, err := gen.AMiner(0.08)
	if err != nil {
		t.Fatalf("AMiner: %v", err)
	}
	idx := builtIndex(t, d.Network, tctree.BuildOptions{MaxDepth: 3})
	fed := federation.New(federation.Options{})
	for name, vertexNames := range map[string][]string{"named": d.AuthorNames, "ids": nil} {
		if err := fed.AttachBuilt(name, idx, federation.NetworkOptions{Dictionary: d.Dictionary, VertexNames: vertexNames}); err != nil {
			t.Fatalf("AttachBuilt(%s): %v", name, err)
		}
	}
	s := &Server{fed: fed}
	n, _ := fed.Network("named")
	qr, err := n.Engine().QueryContext(context.Background(), nil, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(qr.Communities) < 10 {
		t.Fatalf("the answer has %d communities, want at least 10", len(qr.Communities))
	}
	var many []truss.Community
	for len(many) < 1000 {
		many = append(many, qr.Communities...)
	}
	const bound = 2
	w := &discard{header: make(http.Header)}
	for _, name := range []string{"named", "ids"} {
		n, _ := fed.Network(name)
		tn := s.tenantOf(n)
		var allocs []float64
		for _, cs := range [][]truss.Community{qr.Communities[:10], many[:1000]} {
			encode := func() { s.writeAnswer(tn, w, answerHeadOf(nil, 0, qr, false), cs, false, "") }
			encode() // builds the name tables and fills the pool
			allocs = append(allocs, testing.AllocsPerRun(100, encode))
		}
		t.Logf("%s vertices: %.1f allocations at 10 communities, %.1f at 1,000", name, allocs[0], allocs[1])
		if allocs[0] > bound || allocs[1] > bound {
			t.Errorf("%s vertices: encoding an answer costs %.1f (10 communities) and %.1f (1,000) allocations, want at most %d",
				name, allocs[0], allocs[1], bound)
		}
	}
}
