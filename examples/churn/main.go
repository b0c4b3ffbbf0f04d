// Churn analysis: the paper's Sec. 4.1.2 study — label-propagated churn
// affinities become opinions, and MEO seed selection finds the customers
// whose retention outreach best protects the network.
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/datasets"
)

func main() {
	study := datasets.BuildChurnStudy(datasets.ChurnOptions{
		Customers: 3000,
		Seed:      1,
	})
	g := study.Graph
	fmt.Printf("similarity graph: %d customers, %d relationships\n",
		g.NumNodes(), g.NumEdges()/2)

	churners := 0
	for _, c := range study.Churned {
		if c {
			churners++
		}
	}
	fmt.Printf("ground truth: %d churners / %d customers\n\n", churners, len(study.Churned))

	const budget = 30
	opts := holisticim.Options{MCRuns: 2000, Seed: 5}

	// Retention targets under three strategies.
	osim, err := holisticim.SelectSeeds(g, budget, holisticim.AlgOSIM, opts)
	if err != nil {
		log.Fatal(err)
	}
	easy, err := holisticim.SelectSeeds(g, budget, holisticim.AlgEaSyIM, opts)
	if err != nil {
		log.Fatal(err)
	}
	dd, err := holisticim.SelectSeeds(g, budget, holisticim.AlgDegreeDiscount, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-32s %14s %14s\n", "targeting strategy", "opinion spread", "effective λ=1")
	for _, run := range []struct {
		name  string
		seeds []holisticim.NodeID
	}{
		{"DegreeDiscount (most-connected)", dd.Seeds},
		{"EaSyIM (opinion-oblivious)", easy.Seeds},
		{"OSIM (opinion-aware MEO)", osim.Seeds},
	} {
		est := must(holisticim.EstimateOpinionSpreadContext(context.Background(), g, run.seeds, opts))
		fmt.Printf("%-32s %14.2f %14.2f\n", run.name,
			est.OpinionSpread, est.EffectiveOpinionSpread(1))
	}

	// Decompose what the opinion-aware targeting reaches. Note that seeds'
	// own opinions do not count toward spread (Def. 6), so MEO may anchor
	// campaigns at frontier customers — even likely churners — whose
	// outreach cascades into loyal, positive-affinity neighborhoods.
	est := must(holisticim.EstimateOpinionSpreadContext(context.Background(), g, osim.Seeds, opts))
	fmt.Printf("\nOSIM campaign reach: +%.2f positive affinity vs -%.2f negative —\n",
		est.PositiveSpread, est.NegativeSpread)
	churnSeeds := 0
	for _, s := range osim.Seeds {
		if study.Churned[s] {
			churnSeeds++
		}
	}
	fmt.Printf("anchored at %d at-risk and %d loyal customers on the churn frontier.\n",
		churnSeeds, len(osim.Seeds)-churnSeeds)
}

// must unwraps the context estimators: the example configurations are
// known-valid and never cancelled, so an error here is a programming bug.
func must(est holisticim.Estimate, err error) holisticim.Estimate {
	if err != nil {
		panic(err)
	}
	return est
}
