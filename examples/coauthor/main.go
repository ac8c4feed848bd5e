// Co-author example: the AMINER scenario and the paper's case study
// (Section 7.4). Authors are vertices, co-authorship defines edges, and every
// author's database holds the keyword sets of their papers. A theme community
// is a group of collaborators who share a research interest; the TC-Tree
// answers "who works together on X?" queries interactively.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"themecomm"
)

func main() {
	log.SetFlags(0)

	d, err := themecomm.GenerateDataset("AMINER", 0.15)
	if err != nil {
		log.Fatal(err)
	}
	st := d.Network.Stats()
	fmt.Printf("generated co-author network: %d authors, %d co-author edges, %d papers\n",
		st.Vertices, st.Edges, st.Transactions)

	// Build the TC-Tree once and serve it from a federation; every
	// subsequent query is interactive.
	fed := themecomm.NewFederation(themecomm.FederationOptions{})
	idx, err := themecomm.BuildIndex(d.Network, themecomm.TreeBuildOptions{MaxDepth: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := fed.AttachBuilt("aminer", idx, themecomm.FederationNetworkOptions{Dictionary: d.Dictionary}); err != nil {
		log.Fatal(err)
	}
	aminer, _ := fed.Network("aminer")
	eng := aminer.Engine()
	fmt.Printf("TC-Tree: %d nodes, depth %d, max α %.3g\n", eng.NumNodes(), eng.Depth(), eng.MaxAlpha())

	// Query 1: research groups working on data mining + sequential patterns.
	ctx := context.Background()
	query := d.Dictionary.InternAll([]string{"data mining", "sequential pattern", "intrusion detection"})
	answer, err := eng.QueryContext(ctx, query, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery %v at α=0.1 answered in %v (%d trusses)\n",
		d.Dictionary.Names(query), answer.Duration, answer.RetrievedNodes)
	printCommunities(answer.Communities, d, 6)

	// Query 2: sweep α to see how the strongest communities persist.
	fmt.Println("\nquery-by-alpha sweep over the whole index:")
	for _, alpha := range []float64{0, 0.2, 0.5, 1.0} {
		qr, err := eng.QueryContext(ctx, nil, alpha)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  α=%.1f: %d maximal pattern trusses (%v)\n", alpha, qr.RetrievedNodes, qr.Duration)
	}
}

func printCommunities(comms []themecomm.RankedCommunity, d themecomm.Dataset, limit int) {
	shown := 0
	for _, c := range comms {
		if c.Pattern.Len() < 2 {
			continue
		}
		var authors []string
		for _, v := range c.Vertices {
			authors = append(authors, d.AuthorNames[v])
		}
		fmt.Printf("  theme={%s}\n    %s\n",
			strings.Join(d.Dictionary.Names(c.Pattern), ", "), strings.Join(authors, ", "))
		shown++
		if shown >= limit {
			return
		}
	}
	if shown == 0 {
		fmt.Println("  (no multi-keyword communities at this α)")
	}
}
