// Quickstart: build a small database network by hand, mine its theme
// communities, and answer queries from a TC-Tree — the full workflow of the
// library in about sixty lines.
package main

import (
	"context"
	"fmt"
	"log"

	"themecomm"
)

func main() {
	log.SetFlags(0)

	// The item universe: things people buy.
	dict := themecomm.NewDictionary()
	diapers := dict.Intern("diapers")
	beer := dict.Intern("beer")
	coffee := dict.Intern("coffee")

	// A database network: 6 people, their friendships, and what each of them
	// buys. Vertices 0-3 are a tight circle of friends who keep buying
	// diapers and beer together; 4 and 5 hang off the side.
	nw := themecomm.NewNetwork(6)
	edges := [][2]themecomm.VertexID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // the circle (a clique)
		{3, 4}, {4, 5}, // a tail
	}
	for _, e := range edges {
		nw.MustAddEdge(e[0], e[1])
	}
	buy := func(v themecomm.VertexID, times int, items ...themecomm.Item) {
		for i := 0; i < times; i++ {
			if err := nw.AddTransaction(v, themecomm.NewItemset(items...)); err != nil {
				log.Fatal(err)
			}
		}
	}
	for v := themecomm.VertexID(0); v < 4; v++ {
		buy(v, 4, diapers, beer)
		buy(v, 1, coffee)
	}
	buy(4, 5, coffee)
	buy(5, 5, coffee)

	// Mine every theme community with cohesion threshold α = 0.5.
	communities := themecomm.FindThemeCommunities(nw, 0.5)
	fmt.Printf("found %d theme communities at α=0.5\n", len(communities))
	for _, c := range communities {
		fmt.Printf("  theme=%v members=%v\n", dict.Names(c.Pattern), c.Vertices())
	}

	// The same answer can be served from the TC-Tree index without re-mining,
	// for any α and any query pattern: the index joins a federation, and the
	// network's engine answers.
	fed := themecomm.NewFederation(themecomm.FederationOptions{})
	idx, err := themecomm.BuildIndex(nw, themecomm.TreeBuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := fed.AttachBuilt("shop", idx, themecomm.FederationNetworkOptions{Dictionary: dict}); err != nil {
		log.Fatal(err)
	}
	shop, _ := fed.Network("shop")
	eng := shop.Engine()
	fmt.Printf("TC-Tree indexes %d maximal pattern trusses (max α %.2f)\n", eng.NumNodes(), eng.MaxAlpha())

	answer, err := eng.QueryContext(context.Background(), themecomm.NewItemset(diapers, beer), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query {diapers, beer} at α=0.5 answered in %v:\n", answer.Duration)
	for _, c := range answer.Communities {
		fmt.Printf("  theme=%v members=%v\n", dict.Names(c.Pattern), c.Vertices)
	}
}
