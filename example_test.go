package themecomm_test

// Godoc examples for the public API. They double as documentation on
// pkg.go.dev-style doc pages and as executable tests of the examples' output.

import (
	"context"
	"fmt"

	"themecomm"
)

// buildCircle builds a 4-person clique in which everyone keeps buying the two
// items together.
func buildCircle(items ...themecomm.Item) *themecomm.Network {
	nw := themecomm.NewNetwork(4)
	for u := themecomm.VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			nw.MustAddEdge(u, v)
		}
		for i := 0; i < 5; i++ {
			if err := nw.AddTransaction(u, themecomm.NewItemset(items...)); err != nil {
				panic(err)
			}
		}
	}
	return nw
}

func ExampleFindThemeCommunities() {
	dict := themecomm.NewDictionary()
	diapers, beer := dict.Intern("diapers"), dict.Intern("beer")
	nw := buildCircle(diapers, beer)

	for _, c := range themecomm.FindThemeCommunities(nw, 0.5) {
		fmt.Println(dict.Names(c.Pattern), len(c.Vertices()), "members")
	}
	// Output:
	// [diapers] 4 members
	// [beer] 4 members
	// [diapers beer] 4 members
}

func ExampleMineTCFI() {
	dict := themecomm.NewDictionary()
	coffee, cake := dict.Intern("coffee"), dict.Intern("cake")
	nw := buildCircle(coffee, cake)

	res := themecomm.MineTCFI(nw, themecomm.MiningOptions{Alpha: 0.5})
	fmt.Println("patterns:", res.NumPatterns())
	fmt.Println("largest theme:", dict.Names(res.Patterns()[len(res.Patterns())-1]))
	// Output:
	// patterns: 3
	// largest theme: [coffee cake]
}

func ExampleBuildIndex() {
	dict := themecomm.NewDictionary()
	ski, chalet := dict.Intern("ski"), dict.Intern("chalet")
	nw := buildCircle(ski, chalet)

	// The index joins a federation; the network's engine answers queries.
	fed := themecomm.NewFederation(themecomm.FederationOptions{})
	idx, err := themecomm.BuildIndex(nw, themecomm.TreeBuildOptions{})
	if err != nil {
		panic(err)
	}
	if err := fed.AttachBuilt("resort", idx, themecomm.FederationNetworkOptions{}); err != nil {
		panic(err)
	}
	resort, _ := fed.Network("resort")
	eng := resort.Engine()
	answer, err := eng.QueryContext(context.Background(), themecomm.NewItemset(ski, chalet), 0.5)
	if err != nil {
		panic(err)
	}
	fmt.Println("indexed trusses:", eng.NumNodes())
	fmt.Println("retrieved:", answer.RetrievedNodes)
	// Output:
	// indexed trusses: 3
	// retrieved: 3
}

func ExampleDetectMaximalPatternTruss() {
	dict := themecomm.NewDictionary()
	gym, sauna := dict.Intern("gym"), dict.Intern("sauna")
	nw := buildCircle(gym, sauna)

	tr := themecomm.DetectMaximalPatternTruss(nw, themecomm.NewItemset(gym, sauna), 1.0)
	fmt.Println("vertices:", tr.NumVertices(), "edges:", tr.NumEdges())
	// Output:
	// vertices: 4 edges: 6
}

func ExampleMineEdgeThemeCommunities() {
	dict := themecomm.NewDictionary()
	funding, pitch := dict.Intern("funding"), dict.Intern("pitch")

	// Three founders whose pairwise chats all revolve around the pitch.
	nw := themecomm.NewEdgeNetwork(3)
	for _, e := range [][2]themecomm.VertexID{{0, 1}, {0, 2}, {1, 2}} {
		for i := 0; i < 4; i++ {
			if err := nw.AddInteraction(e[0], e[1], themecomm.NewItemset(funding, pitch)); err != nil {
				panic(err)
			}
		}
	}
	res := themecomm.MineEdgeThemeCommunities(nw, themecomm.EdgeMiningOptions{Alpha: 0.5})
	for _, c := range res.Communities() {
		fmt.Println(dict.Names(c.Pattern), len(c.Vertices()), "members")
	}
	// Output:
	// [funding] 3 members
	// [pitch] 3 members
	// [funding pitch] 3 members
}
