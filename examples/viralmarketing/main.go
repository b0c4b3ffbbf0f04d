// Viral marketing: the paper's running iPhone example (Examples 1-2),
// first on the exact 4-node Figure-1 network, then on a realistic
// polarized market where picking seeds by raw reach backfires.
//
//	go run ./examples/viralmarketing
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/holisticim/holisticim"
)

func main() {
	figureOne()
	market()
}

// figureOne rebuilds Figure 1 (nodes A,B,C,D) with the public API and
// shows that reach-driven selection picks C while opinion-aware selection
// picks A — the worked Example 2 of the paper.
func figureOne() {
	b := holisticim.NewBuilder(4)
	const (
		A holisticim.NodeID = 0
		B holisticim.NodeID = 1
		C holisticim.NodeID = 2
		D holisticim.NodeID = 3
	)
	b.AddEdgeP(B, A, 0.1, 0.7)
	b.AddEdgeP(B, C, 0.1, 0.8)
	b.AddEdgeP(A, D, 0.8, 0.9)
	b.AddEdgeP(C, D, 0.9, 0.1)
	g := b.Build()
	g.SetOpinion(A, 0.8)  // loved previous iPhones
	g.SetOpinion(B, 0.0)  // neutral
	g.SetOpinion(C, 0.6)  // mildly positive
	g.SetOpinion(D, -0.3) // dislikes the brand

	names := map[holisticim.NodeID]string{A: "A", B: "B", C: "C", D: "D"}
	opts := holisticim.Options{MCRuns: 50000, Seed: 3}

	fmt.Println("== Figure 1: who should get the one free iPhone? ==")
	fmt.Printf("%4s  %12s  %16s\n", "node", "IC spread", "opinion spread")
	for _, v := range []holisticim.NodeID{A, B, C, D} {
		ic := must(holisticim.EstimateSpreadContext(context.Background(), g, []holisticim.NodeID{v}, opts))
		oi := must(holisticim.EstimateOpinionSpreadContext(context.Background(), g, []holisticim.NodeID{v}, opts))
		fmt.Printf("%4s  %12.4f  %16.4f\n", names[v], ic.Spread, oi.OpinionSpread)
	}
	easy, _ := holisticim.SelectSeeds(g, 1, holisticim.AlgEaSyIM, holisticim.Options{PathLength: 2, Seed: 3})
	osim, _ := holisticim.SelectSeeds(g, 1, holisticim.AlgOSIM, holisticim.Options{PathLength: 2, Seed: 3})
	fmt.Printf("EaSyIM picks %s (best reach); OSIM picks %s (best effective opinion)\n\n",
		names[easy.Seeds[0]], names[osim.Seeds[0]])
}

// market runs the same comparison at scale: a polarized customer base
// where the most connected hubs sit in hostile territory.
func market() {
	g := holisticim.GenerateBA(20000, 4, 11)
	g.SetUniformProb(0.1)
	holisticim.AssignOpinions(g, holisticim.OpinionPolarized, 12)
	holisticim.AssignInteractions(g, 13)

	const k = 25
	opts := holisticim.Options{MCRuns: 2000, Seed: 15}
	easy, err := holisticim.SelectSeeds(g, k, holisticim.AlgEaSyIM, opts)
	if err != nil {
		log.Fatal(err)
	}
	osim, err := holisticim.SelectSeeds(g, k, holisticim.AlgOSIM, opts)
	if err != nil {
		log.Fatal(err)
	}
	dd, err := holisticim.SelectSeeds(g, k, holisticim.AlgDegreeDiscount, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Polarized market, 20K customers, budget 25 ==")
	fmt.Printf("%-28s %12s %12s %12s\n", "strategy", "reach", "opinion", "effective λ=1")
	for _, run := range []struct {
		name  string
		seeds []holisticim.NodeID
	}{
		{"DegreeDiscount (followers)", dd.Seeds},
		{"EaSyIM (max reach)", easy.Seeds},
		{"OSIM (max effective opinion)", osim.Seeds},
	} {
		sp := must(holisticim.EstimateSpreadContext(context.Background(), g, run.seeds, opts))
		op := must(holisticim.EstimateOpinionSpreadContext(context.Background(), g, run.seeds, opts))
		fmt.Printf("%-28s %12.1f %12.2f %12.2f\n",
			run.name, sp.Spread, op.OpinionSpread, op.EffectiveOpinionSpread(1))
	}
	fmt.Println("\nReach-driven campaigns recruit detractors; MEO counts them against you.")
}

// must unwraps the context estimators: the example configurations are
// known-valid and never cancelled, so an error here is a programming bug.
func must(est holisticim.Estimate, err error) holisticim.Estimate {
	if err != nil {
		panic(err)
	}
	return est
}
